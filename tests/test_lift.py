"""Differential tests of deforestation and lifted plans against the
ordered-scan reference in ``graph_reference``.

The heap-driven ``deforest`` must collapse the same edges in the same order,
and the pointer-walk ``slide`` must take the same steps, as the reference
that re-sorts the leaves before every collapse and scans every collapse on
every slide.  The lifted plan's answers are compared with answers assembled
from the reference slides and the circle plan on the core.
"""

import random

import pytest

import graph_reference as ref
import path_reference
from gen import (random_connected_graph, random_cycle_with_hairs, random_point,
                 random_tree)
from wildcat.graphs import EdgeInterior, PLPath, Vertex, deforest
from wildcat.planner import execute, plan_circle, plan_graph


def _sample_points(rng, g, n_edge_points):
    """Every vertex, and ``n_edge_points`` random points inside edges."""
    pts = [Vertex(v) for v in g.vertices]
    while g.edges and n_edge_points:
        p = random_point(rng, g)
        if isinstance(p, EdgeInterior):
            pts.append(p)
            n_edge_points -= 1
    return pts


def _assert_deforest_matches(rng, g, n_edge_points=20):
    core, h = deforest(g)
    ref_core, ref_collapses = ref.deforest_collapses(g)
    assert core == ref_core
    assert h.collapses == ref_collapses
    for p in _sample_points(rng, g, n_edge_points):
        got = h.slide(p)
        want = ref.slide(g, ref_collapses, p)
        assert got.steps == want.steps
        assert got.source == want.source == p


def _reference_answer(g, circle, collapses, x, y):
    sx = ref.slide(g, collapses, x)
    sy = ref.slide(g, collapses, y)
    rx, ry = sx.endpoint1, sy.endpoint1
    j = circle.stratum_index(rx, ry)
    core = circle.rules[j].path_for(rx, ry)
    mid = PLPath(g, core.steps, source=core.source)
    return j, path_reference.concat(g, x, (sx, mid, path_reference.reverse(sy)))


def _assert_lifted_answers_match(rng, g, n_queries):
    core, h = deforest(g)
    plan = plan_graph(g)
    circle = plan_circle(core)
    for _ in range(n_queries):
        x, y = random_point(rng, g), random_point(rng, g)
        j, path = execute(plan, x, y)
        want_j, want = _reference_answer(g, circle, h.collapses, x, y)
        assert j == want_j
        assert path.steps == want.steps
        assert path.source == want.source == x
        assert path.endpoint1 == y


def test_deforest_matches_reference_random_connected():
    rng = random.Random(5101)
    for _ in range(400):
        _assert_deforest_matches(rng, random_connected_graph(rng))


def test_deforest_matches_reference_random_trees():
    rng = random.Random(5102)
    for _ in range(200):
        _assert_deforest_matches(rng, random_tree(rng, rng.randint(1, 40)))


def test_deforest_matches_reference_cycles_with_hairs():
    rng = random.Random(5103)
    for _ in range(200):
        g = random_cycle_with_hairs(rng, rng.randint(1, 6), rng.randint(0, 30))
        _assert_deforest_matches(rng, g)


@pytest.mark.parametrize("cycle_len,n_hairs", [(40, 360), (160, 1440)])
def test_deforest_matches_reference_benchmark_sizes(cycle_len, n_hairs):
    rng = random.Random(5104 + n_hairs)
    g = random_cycle_with_hairs(rng, cycle_len, n_hairs)
    _assert_deforest_matches(rng, g, n_edge_points=200)


def test_lifted_answers_match_reference_random():
    rng = random.Random(5105)
    for _ in range(150):
        g = random_cycle_with_hairs(rng, rng.randint(1, 6), rng.randint(0, 20))
        _assert_lifted_answers_match(rng, g, 20)


def test_lifted_answers_match_reference_random_connected():
    rng = random.Random(5106)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng)
        if len(g.edges) - len(g.vertices) + 1 != 1:
            continue
        _assert_lifted_answers_match(rng, g, 20)
        checked += 1


@pytest.mark.parametrize("cycle_len,n_hairs", [(40, 360), (160, 1440)])
def test_lifted_answers_match_reference_benchmark_sizes(cycle_len, n_hairs):
    rng = random.Random(5107 + n_hairs)
    g = random_cycle_with_hairs(rng, cycle_len, n_hairs)
    _assert_lifted_answers_match(rng, g, 100)
