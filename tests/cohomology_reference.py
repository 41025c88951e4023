"""Reference copy of the dense Kunneth algebra, kept for differential tests
only.

Here a degree-1 element stores its ``left`` and ``right`` components as
full vectors of length b1, and a degree-2 element stores the whole
b1 x b1 ``cross`` matrix, so every cup builds and scans b1^2 Fractions.
That is quadratic in the first Betti number, but each entry is a direct
transcription of the bilinear formula, which makes it the oracle for
``wildcat.cohomology.KunnethElement`` and ``zero_divisor_cuplength``.
"""

from dataclasses import dataclass
from fractions import Fraction

from wildcat.cohomology import h1_basis

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class DenseKunnethElement:
    """Element of H*(g x g) in degrees 1 and 2, with dense components."""

    dim: int
    left: tuple
    right: tuple
    cross: tuple

    def __post_init__(self):
        if len(self.left) != self.dim or len(self.right) != self.dim:
            raise ValueError("component length does not match basis dimension")
        if len(self.cross) != self.dim or any(len(r) != self.dim for r in self.cross):
            raise ValueError("cross matrix shape does not match basis dimension")

    @classmethod
    def degree_one(cls, left, right) -> "DenseKunnethElement":
        left = tuple(Fraction(c) for c in left)
        right = tuple(Fraction(c) for c in right)
        dim = len(left)
        zero_row = (_ZERO,) * dim
        return cls(dim, left, right, (zero_row,) * dim)

    @classmethod
    def zero_divisor(cls, dim: int, index: int) -> "DenseKunnethElement":
        """a (x) 1 - 1 (x) a for the index-th basis class a."""
        vec = tuple(_ONE if i == index else _ZERO for i in range(dim))
        neg = tuple(-c for c in vec)
        return cls.degree_one(vec, neg)

    def is_zero(self) -> bool:
        return (all(c == 0 for c in self.left)
                and all(c == 0 for c in self.right)
                and all(c == 0 for row in self.cross for c in row))

    def is_degree_one(self) -> bool:
        return all(c == 0 for row in self.cross for c in row)

    def cup(self, other: "DenseKunnethElement") -> "DenseKunnethElement":
        """Cup product of two degree-1 elements (degree-2 result)."""
        if self.dim != other.dim:
            raise ValueError("mismatched basis dimensions")
        if not (self.is_degree_one() and other.is_degree_one()):
            raise ValueError("cup is only defined between degree-1 elements")
        dim = self.dim
        cross = tuple(
            tuple(self.left[i] * other.right[j] - other.left[i] * self.right[j]
                  for j in range(dim))
            for i in range(dim)
        )
        zeros = (_ZERO,) * dim
        return DenseKunnethElement(dim, zeros, zeros, cross)


def zero_divisor_cuplength(g) -> int:
    """Length of the longest non-vanishing product of zero-divisors."""
    dim = h1_basis(g).dimension
    divisors = [DenseKunnethElement.zero_divisor(dim, i) for i in range(dim)]
    length = 0
    for z in divisors:
        if not z.is_zero():
            length = 1
            break
    for i in range(dim):
        if length == 2:
            break
        for j in range(i + 1, dim):
            if not divisors[i].cup(divisors[j]).is_zero():
                length = 2
                break
    return length
