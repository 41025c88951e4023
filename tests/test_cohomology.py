import random
import time
from fractions import Fraction

import pytest

from wildcat.cohomology import KunnethElement, h1_basis, zero_divisor_cuplength
from wildcat.graphs import GraphError, betti1, build_graph, tc_graph

import cohomology_reference as ref

from gen import (path_graph, cycle_graph, figure_eight, theta_graph, k4,
                 random_connected_graph)


def _cross(element):
    """The H1 (x) H1 component as a dense ``dim`` x ``dim`` matrix."""
    rows = [[Fraction(0)] * element.dim for _ in range(element.dim)]
    for (i, j), c in element.pairs.items():
        rows[i][j] = c
    return tuple(tuple(row) for row in rows)


def test_h1_basis_dimensions():
    assert h1_basis(path_graph(4)).dimension == 0
    assert h1_basis(cycle_graph(3)).dimension == 1
    assert h1_basis(k4()).dimension == 3 == betti1(k4())


def test_h1_basis_is_nonforest_edges():
    basis = h1_basis(cycle_graph(3))
    assert basis.generators == ("e2",)  # e0, e1 enter the canonical forest


def test_h1_basis_disconnected_rejected():
    with pytest.raises(GraphError):
        h1_basis(build_graph(["a", "b"], []))


def test_zero_divisor_square_vanishes():
    # graded commutativity: (a x 1 - 1 x a)^2 = 0 for every degree-1 class
    for g in (cycle_graph(3), figure_eight(), k4()):
        dim = h1_basis(g).dimension
        for i in range(dim):
            z = KunnethElement.zero_divisor(dim, i)
            assert z.cup(z).is_zero()


def test_two_independent_zero_divisors_multiply():
    z0 = KunnethElement.zero_divisor(2, 0)
    z1 = KunnethElement.zero_divisor(2, 1)
    prod = z0.cup(z1)
    # -a x b + b x a: antisymmetric matrix with entries -1 / +1
    cross = _cross(prod)
    assert cross[0][1] == Fraction(-1)
    assert cross[1][0] == Fraction(1)
    assert cross[0][0] == 0 and cross[1][1] == 0


def test_cup_requires_degree_one():
    z0 = KunnethElement.zero_divisor(2, 0)
    z1 = KunnethElement.zero_divisor(2, 1)
    with pytest.raises(ValueError):
        z0.cup(z1).cup(z1)


def test_cuplength_examples():
    assert zero_divisor_cuplength(path_graph(3)) == 0
    assert zero_divisor_cuplength(cycle_graph(3)) == 1
    assert zero_divisor_cuplength(figure_eight()) == 2
    assert zero_divisor_cuplength(theta_graph()) == 2


def test_tc_lower_bound_examples():
    assert zero_divisor_cuplength(path_graph(3)) == 0 == tc_graph(path_graph(3))
    assert zero_divisor_cuplength(cycle_graph(4)) == 1 == tc_graph(cycle_graph(4))
    assert zero_divisor_cuplength(k4()) == 2 == tc_graph(k4())


def test_cuplength_matches_betti_classification_random():
    rng = random.Random(17)
    for _ in range(100):
        g = random_connected_graph(rng)
        got = zero_divisor_cuplength(g)
        b = betti1(g)
        expected = 0 if b == 0 else (1 if b == 1 else 2)
        assert got == expected
        assert zero_divisor_cuplength(g) == tc_graph(g)


# --- differential tests against the dense reference -------------------------

_COEFFS = (Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
           Fraction(1, 2), Fraction(-2, 3))


def _graph_with_b1(rng, b1):
    n = rng.randint(1, 10)
    vs = [f"v{i}" for i in range(n)]
    es = [(f"t{i}", vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    es += [(f"c{k}", rng.choice(vs), rng.choice(vs)) for k in range(b1)]
    return build_graph(vs, es)


def _pair(dim, left, right):
    """The same degree-1 element in the sparse and the dense form."""
    sparse = KunnethElement(dim, {i: c for i, c in enumerate(left) if c},
                            {i: c for i, c in enumerate(right) if c}, {})
    return sparse, ref.DenseKunnethElement.degree_one(left, right)


def _assert_same(sparse, dense):
    assert _cross(sparse) == dense.cross
    assert sparse.is_zero() == dense.is_zero()
    assert sparse.is_degree_one() == dense.is_degree_one()


def test_cuplength_matches_dense_reference_random():
    rng = random.Random(606)
    for _ in range(220):
        g = _graph_with_b1(rng, rng.randint(0, 30))
        assert betti1(g) <= 30
        assert zero_divisor_cuplength(g) == ref.zero_divisor_cuplength(g)


def test_basis_zero_divisor_cups_match_dense_reference():
    dim = 5
    for i in range(dim):
        for j in range(dim):
            a = KunnethElement.zero_divisor(dim, i).cup(KunnethElement.zero_divisor(dim, j))
            b = ref.DenseKunnethElement.zero_divisor(dim, i).cup(
                ref.DenseKunnethElement.zero_divisor(dim, j))
            _assert_same(a, b)
            assert a.is_zero() == (i == j)


def test_random_degree_one_cups_match_dense_reference():
    rng = random.Random(607)
    for _ in range(300):
        dim = rng.randint(1, 4)
        xs, xd = _pair(dim, *([rng.choice(_COEFFS) for _ in range(dim)] for _ in "lr"))
        ys, yd = _pair(dim, *([rng.choice(_COEFFS) for _ in range(dim)] for _ in "lr"))
        k = rng.choice(_COEFFS[2:])
        # x cup x and x cup kx cancel term by term
        zs, zd = _pair(dim, [k * c for c in xd.left], [k * c for c in xd.right])
        _assert_same(xs, xd)
        for (a, b), (c, d) in (((xs, ys), (xd, yd)), ((ys, xs), (yd, xd)),
                               ((xs, xs), (xd, xd)), ((xs, zs), (xd, zd))):
            _assert_same(a.cup(b), c.cup(d))
        assert xs.cup(xs).is_zero() and xs.cup(zs).is_zero()


def test_cuplength_scales_linearly_in_b1():
    # b1 = 2001: two vertices joined by 2002 parallel edges
    g = build_graph(["a", "b"], [(f"e{i}", "a", "b") for i in range(2002)])
    t0 = time.perf_counter()
    assert zero_divisor_cuplength(g) == 2
    assert time.perf_counter() - t0 < 0.5
