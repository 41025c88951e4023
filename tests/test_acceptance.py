"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and runtime bound is pinned here.
"""

import itertools
import random
import time
from fractions import Fraction

from wildcat.graphs import betti1, cat_graph, tc_graph, Vertex, EdgeInterior
from wildcat.cohomology import zero_divisor_cuplength
from wildcat.planner import (plan_graph, verify_plan, cat_filtration,
                             product_cat_filtration)
from wildcat.wild import INF, SelfWild, ZeroDimWild, profile, cat, tc, wrk, truncate

from gen import (point_graph, path_graph, cycle_graph, circle_with_hair,
                 figure_eight, theta_graph, k4, random_connected_graph,
                 random_point, random_stable_expr, random_tree)

import test_wild as golden


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _corpus(seed=2024, count=50):
    graphs = [point_graph(), path_graph(3), cycle_graph(3), circle_with_hair(),
              figure_eight(), theta_graph(), k4()]
    rng = random.Random(seed)
    graphs.extend(random_connected_graph(rng) for _ in range(count))
    return graphs


def test_criterion_1_graph_table():
    t0 = time.perf_counter()
    graphs = _corpus()
    for g in graphs:
        b = betti1(g)
        assert cat_graph(g) == (0 if b == 0 else 1)
        assert tc_graph(g) == (0 if b == 0 else (1 if b == 1 else 2))
        assert cat_graph(g) in (0, 1) and tc_graph(g) in (0, 1, 2)
    elapsed = time.perf_counter() - t0
    _line(1, elapsed < 1.0,
          f"cat/tc of {len(graphs)} graphs match the cycle classification "
          f"in {elapsed:.3f}s (< 1s)")


def test_criterion_2_tight_planner():
    graphs = _corpus()
    for g in graphs:
        plan = plan_graph(g)
        assert len(plan.strata) == tc_graph(g) + 1
        assert zero_divisor_cuplength(g) == tc_graph(g)
    _line(2, True,
          f"plan strata = tc+1 and cup-length lower bound meets tc on "
          f"{len(graphs)} graphs (exact)")


def test_criterion_3_plan_soundness():
    t0 = time.perf_counter()
    rng = random.Random(77)
    graphs = [k4()] + [random_connected_graph(rng) for _ in range(20)]
    for g in graphs:
        report = verify_plan(plan_graph(g), g, samples=10_000,
                             continuity_samples=1000, seed=0)
        bad = [c for c in report.checks if not c.passed]
        assert not bad, (g, bad)
    elapsed = time.perf_counter() - t0
    _line(3, elapsed < 30.0,
          f"verify_plan: exact sections, exhaustive cell coverage, and "
          f"continuity sampling on {len(graphs)} graphs x 10^4 queries "
          f"in {elapsed:.1f}s (< 30s)")


def test_criterion_4_golden_values():
    cases = [
        ("earring", golden.earring(), (2, 1, 2)),
        ("wild circle", golden.wild_circle(), (2, 2, 3)),
        ("nested rank-3", golden.nested_rank3(), (3, 2, 4)),
        ("wedge of two wild circles", golden.wedge_two_wild(), (2, 2, 4)),
        ("self-wild", SelfWild(), (INF, INF, INF)),
        ("zero-dimensional wild", ZeroDimWild(), (2, 1, 2)),
    ]
    for name, expr, expected in cases:
        got = (wrk(expr), cat(expr), tc(expr))
        assert got == expected, (name, got, expected)
    _line(4, True, "all six golden (wrk, cat, tc) triples exact")


def test_criterion_5_rank_formula_shape():
    t0 = time.perf_counter()
    rng = random.Random(5150)
    for _ in range(200):
        e = random_stable_expr(rng, rng.randint(0, 4))
        prof = profile(e)
        n, c, t = prof.wrk, cat(e), tc(e)
        if prof.top_b1 == 0:
            assert (c, t) == (n - 1, 2 * n - 2)
        elif prof.top_b1 == 1:
            assert (c, t) == (n, 2 * n - 1)
        else:
            assert (c, t) == (n, 2 * n)
        if c >= 1:
            assert c <= t <= 2 * c
    elapsed = time.perf_counter() - t0
    _line(5, elapsed < 10.0,
          f"200 stable expressions of depth <= 4 follow the rank formulas "
          f"in {elapsed:.2f}s (< 10s)")


def test_criterion_6_product_filtration():
    # on trees and on b1 >= 2, plan_graph's strata are the product levels
    rng = random.Random(606)
    graphs = (random_connected_graph(rng) for _ in range(10))
    trees = (point_graph(), path_graph(3), random_tree(random.Random(616), 12))
    planned = 0
    for g in itertools.chain(graphs, trees):
        f = cat_filtration(g)
        prod = product_cat_filtration(f, f)
        plan = plan_graph(g) if betti1(g) != 1 else None
        planned += plan is not None
        assert prod.length <= 2 * cat_graph(g)
        assert all(level.is_closed() for level in prod.levels)
        probes = [Vertex(v) for v in g.vertices]
        probes.extend(EdgeInterior(e.id, Fraction(1, 2)) for e in g.edges)
        for x in probes:
            for y in probes:
                k = prod.level_index(x, y)
                assert all(prod.levels[m].contains(x, y)
                           for m in range(k, len(prod.levels)))
                assert k == prod.first.level_index(x) + prod.second.level_index(y)
                assert plan is None or plan.stratum_index(x, y) == k
        for _ in range(50):
            x, y = random_point(rng, g), random_point(rng, g)
            k = prod.level_index(x, y)
            assert k == prod.first.level_index(x) + prod.second.level_index(y)
            assert plan is None or plan.stratum_index(x, y) == k
    assert planned == 12  # the ten graphs hold one with b1 = 1
    _line(6, True,
          "product of the cat filtration with itself is a valid closed "
          "filtration of length <= 2*cat on 10 graphs and 3 trees, and "
          f"plan_graph's strata on the {planned} without exactly one cycle (exact)")


def test_criterion_7_truncation_cross_check():
    rng = random.Random(707)
    checked = 0
    earring_like = 0
    while checked < 50:
        e = random_stable_expr(rng, rng.randint(0, 2))
        t_e = tc(e)
        prof = profile(e)
        prev = -1
        for depth in (1, 2, 4, 8):
            g = truncate(e, depth)
            b = betti1(g)
            assert b >= prev
            prev = b
            if t_e >= 2:
                assert tc_graph(g) <= t_e
                if prof.wrk == 2 and prof.top_b1 == 0 and depth >= 2:
                    assert tc_graph(g) == t_e == 2
                    earring_like += 1
        checked += 1
    _line(7, True,
          f"tc of truncations bounded by tc of the expression and betti1 "
          f"monotone on 50 expressions ({earring_like} earring-type "
          "equality checks); exact")


def test_criterion_8_cohomology_oracle():
    rng = random.Random(808)
    for _ in range(100):
        g = random_connected_graph(rng)
        b = betti1(g)
        expected = 0 if b == 0 else (1 if b == 1 else 2)
        assert zero_divisor_cuplength(g) == expected
    _line(8, True,
          "bilinear zero-divisor cup-length equals the Betti classification "
          "on 100 graphs (exact)")
