"""Degree-one rational cohomology of a graph and the zero-divisor cup-length.

H*(G) of a connected graph is Q in degree 0 and Q^b in degree 1 (b = first
Betti number), with basis classes dual to the non-forest edges.  Degrees <= 2
of H*(G x G) are carried by the Kunneth pieces H1 (x) H0, H0 (x) H1 and
H1 (x) H1; everything above truncates.  The cup-length of the kernel of the
diagonal map is computed by explicit bilinear algebra over the rationals and
bounds the topological complexity of the graph from below (tightly, at graph
scale).  Elements hold only their non-zero coefficients, so a cup of two
basis zero-divisors costs O(1) and the cup-length O(b) once the basis is
built.
"""

from dataclasses import dataclass
from fractions import Fraction

from .graphs import MultiGraph, GraphError, spanning_forest

__all__ = [
    "CocycleBasis",
    "KunnethElement",
    "h1_basis",
    "zero_divisor_cuplength",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CocycleBasis:
    """Basis of H^1(g; Q): one class per non-forest edge of the canonical
    spanning forest, in increasing edge-id order."""

    graph: MultiGraph
    forest: tuple
    generators: tuple

    @property
    def dimension(self) -> int:
        return len(self.generators)


def h1_basis(g: MultiGraph) -> CocycleBasis:
    if g.n_components != 1:
        raise GraphError("h1_basis requires a connected graph")
    forest = spanning_forest(g)
    fset = set(forest)
    gens = tuple(sorted(e.id for e in g.edges if e.id not in fset))
    return CocycleBasis(g, forest, gens)


@dataclass(frozen=True)
class KunnethElement:
    """Element of H*(g x g) in degrees 1 and 2, stored sparsely.

    ``left`` and ``right`` map a basis index to the non-zero coefficients of
    the H1 (x) H0 and H0 (x) H1 components of a degree-1 element; ``pairs``
    maps an index pair (i, j) to the non-zero coefficient of a_i (x) a_j in
    the H1 (x) H1 component of a degree-2 element.  A zero coefficient is
    never stored, so the size of an element is its number of non-zero
    terms, not a power of ``dim``.  The cup product of two degree-1 elements
    lands in ``pairs`` with the graded sign -1 on the (1 (x) a)(b (x) 1)
    term.
    """

    dim: int
    left: dict
    right: dict
    pairs: dict

    @classmethod
    def zero_divisor(cls, dim: int, index: int) -> "KunnethElement":
        """a (x) 1 - 1 (x) a for the index-th basis class a."""
        return cls(dim, {index: _ONE}, {index: -_ONE}, {})

    def is_zero(self) -> bool:
        return not (self.left or self.right or self.pairs)

    def is_degree_one(self) -> bool:
        return not self.pairs

    def cup(self, other: "KunnethElement") -> "KunnethElement":
        """Cup product of two degree-1 elements (degree-2 result).

        The (i, j) coefficient is left_i * other.right_j -
        other.left_i * right_j, built from the non-zero terms only.
        """
        if self.dim != other.dim:
            raise ValueError("mismatched basis dimensions")
        if not (self.is_degree_one() and other.is_degree_one()):
            raise ValueError("cup is only defined between degree-1 elements")
        pairs = {(i, j): a * b for i, a in self.left.items()
                 for j, b in other.right.items()}
        for i, a in other.left.items():
            for j, b in self.right.items():
                c = pairs.get((i, j), _ZERO) - a * b
                if c:
                    pairs[i, j] = c
                else:
                    pairs.pop((i, j), None)
        return KunnethElement(self.dim, {}, {}, pairs)


def zero_divisor_cuplength(g: MultiGraph) -> int:
    """Length of the longest non-vanishing product of zero-divisors.

    Computed over the rationals from the basis zero-divisors; graph
    cohomology caps the answer at 2 for degree reasons.  It equals the
    topological complexity of every connected graph.
    """
    dim = h1_basis(g).dimension
    divisors = [KunnethElement.zero_divisor(dim, i) for i in range(dim)]
    if any(not divisors[i].cup(divisors[j]).is_zero()
           for i in range(dim) for j in range(i + 1, dim)):
        return 2
    return int(any(not z.is_zero() for z in divisors))
