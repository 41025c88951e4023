"""Self-tests of the benchmark's generators, oracles and negative controls.

    python3 bench/selftest.py

They run the program only at tiny sizes and take a few seconds.
"""

import random
import shutil
import sys
import unittest
from fractions import Fraction

import run
import spans

workloads, _ = run.load_program()
import gen        # noqa: E402  (importable once load_program set the path)
import oracles    # noqa: E402


class Scratch(unittest.TestCase):

    def setUp(self):
        self.dir = run.BENCH / "_work" / f"selftest-{id(self)}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text, encoding="ascii")
        return str(path)


class ChainFormulas(Scratch):

    def test_depth_one_is_the_rank_three_nested_example(self):
        self.assertEqual(gen.chain_invariants(1), (3, 2, 4))
        path = self.write("d1.space", gen.chain_text(random.Random(0), 1))
        _, rc, out = workloads.run_cli(["info", path])
        self.assertIsNone(oracles.check_info(rc, out, (3, 2, 4)))

    def test_deep_chain_matches_the_program(self):
        path = self.write("d6.space", gen.chain_text(random.Random(3), 6))
        _, rc, out = workloads.run_cli(["certify", path])
        self.assertIsNone(oracles.check_certify(rc, out, gen.chain_invariants(6)))

    def test_truncation_count_by_hand(self):
        # depth 2 puts the two copies of every family on vertex cells: a
        # triangle with two loops is 3 vertices and 5 edges, and the point
        # carries two of them, glued at one vertex each
        self.assertEqual(gen.chain_truncation_size(1, 2), (1 + 2 * 2, 2 * 5))
        path = self.write("d1.space", gen.chain_text(random.Random(0), 1))
        _, rc, out = workloads.run_cli(["truncate", path, "--depth", "2"])
        self.assertIsNone(oracles.check_truncate(rc, out, (5, 10)))

    def test_truncation_count_with_edge_copies(self):
        # depth 7 puts copies 3, 4 and 5 on the triangle's edges
        path = self.write("d2.space", gen.chain_text(random.Random(1), 2))
        _, rc, out = workloads.run_cli(["truncate", path, "--depth", "7"])
        self.assertIsNone(oracles.check_truncate(rc, out, gen.chain_truncation_size(2, 7)))


class PathOracle(unittest.TestCase):

    def setUp(self):
        # a path a - b - c with a loop at c
        self.g = oracles.Graph(["a", "b", "c"],
                               [("e0", "a", "b"), ("e1", "b", "c"), ("l", "c", "c")])
        self.tree = oracles.Graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
        S = oracles.Step
        self.x, self.y = ("e", "e0", Fraction(1, 2)), ("v", "c")
        self.good = [S("e0", Fraction(1, 2), 1), S("e1", 0, 1)]

    def test_accepts_a_shortest_path(self):
        self.assertIsNone(oracles.check_path(self.g, self.x, self.y, self.good))
        self.assertIsNone(oracles.check_path(self.tree, self.x, self.y, self.good))

    def test_rejects_reversed_and_truncated(self):
        rev = [oracles.Step(s.edge, s.b, s.a) for s in reversed(self.good)]
        self.assertIsNotNone(oracles.check_path(self.g, self.x, self.y, rev))
        self.assertIsNotNone(oracles.check_path(self.g, self.x, self.y, self.good[:-1]))

    def test_rejects_a_gap(self):
        gap = [self.good[0], oracles.Step("l", 0, 1)]
        self.assertIsNotNone(oracles.check_path(self.g, self.x, ("v", "c"), gap))

    def test_detour_allowed_on_a_graph_but_not_on_a_tree(self):
        S = oracles.Step
        detour = self.good + [S("e1", 1, 0), S("e1", 0, 1)]
        self.assertIsNone(oracles.check_path(self.g, self.x, self.y, detour))
        self.assertIsNotNone(oracles.check_path(self.tree, self.x, self.y, detour))

    def test_distance_through_a_loop(self):
        p, q = ("e", "l", Fraction(1, 4)), ("e", "l", Fraction(7, 8))
        self.assertEqual(self.g.point_dist(p, q), Fraction(3, 8))
        self.assertEqual(self.g.point_dist(("v", "a"), p), Fraction(9, 4))
        self.assertEqual(self.g.distances([(p, q), (("v", "a"), p)]),
                         [Fraction(3, 8), Fraction(9, 4)])

    def test_grouped_distances_match_point_dist(self):
        rng = random.Random(5)
        vs, es = gen.general_graph(rng, 30, 45)
        g = oracles.Graph(vs, es)
        pairs = [(gen.random_point(rng, vs, es), gen.random_point(rng, vs, es))
                 for _ in range(200)]
        pairs.append((pairs[0][0], pairs[0][0]))
        self.assertEqual(g.distances(pairs), [g.point_dist(p, q) for p, q in pairs])


class NegativeControls(Scratch):

    def test_every_workload_control_fires(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                w = cls(str(self.dir), spans.Speed())
                w.setup(random.Random(7))
                self.assertEqual(w.controls(), [])

    def test_corrupt_verify_is_rejected(self):
        vs, es = gen.general_graph(random.Random(2), 6, 9)
        path = self.write("g.space", gen.graph_text(vs, es))
        _, rc, out = workloads.run_cli(["verify", path, "--corrupt", "--samples", "100"])
        self.assertIsNone(oracles.check_corrupt_verify(rc, out))
        self.assertIsNotNone(oracles.check_verify(rc, out, gen.expected_tc(vs, es)))
        _, rc, out = workloads.run_cli(["verify", path, "--samples", "100"])
        self.assertIsNone(oracles.check_verify(rc, out, gen.expected_tc(vs, es)))
        self.assertIsNotNone(oracles.check_corrupt_verify(rc, out))

    def test_wrong_sizes_and_invariants_are_rejected(self):
        path = self.write("d1.space", gen.chain_text(random.Random(0), 1))
        _, rc, out = workloads.run_cli(["certify", path])
        self.assertIsNotNone(oracles.check_certify(rc, out, (3, 2, 5)))
        self.assertIsNotNone(oracles.check_info(rc, out, (4, 3, 6)))
        _, rc, out = workloads.run_cli(["truncate", path, "--depth", "2"])
        self.assertIsNotNone(oracles.check_truncate(rc, out, (5, 11)))
        self.assertIsNotNone(oracles.check_truncate(rc, out[: len(out) // 2], (5, 10)))


class Spans(unittest.TestCase):

    def test_self_time_and_recursion(self):
        ticks = iter(range(0, 1000, 10))
        tracer = spans.Tracer(lambda: next(ticks))

        def fact(n):
            return 1 if n == 0 else n * traced_fact(n - 1)

        traced_fact = tracer.wrap("graphs.fact", fact, lambda r: {"value": r})
        tracer.enabled = True
        with tracer.span("cli.main"):
            self.assertEqual(traced_fact(4), 24)
        self.assertEqual([s[3] for s in tracer.spans], ["graphs.fact", "cli.main"])
        inner, root = tracer.spans
        self.assertEqual((inner[0], inner[2], inner[6]), (root[1], root[1], {"value": 24}))
        totals, counts = spans.round_totals(tracer.spans, [0])
        self.assertEqual(counts[0]["value"], 24)
        self.assertAlmostEqual(totals[0]["cli.main"], 30e-9)
        self.assertAlmostEqual(totals[0]["cli#layer"], 20e-9)
        self.assertAlmostEqual(totals[0]["graphs#layer"], 10e-9)


class Determinism(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        def inputs(seed):
            rng = random.Random(seed)
            vs, es = gen.general_graph(rng, 30, 45)
            return (gen.graph_text(vs, es), gen.chain_text(rng, 4),
                    [gen.random_point(rng, vs, es) for _ in range(20)])
        self.assertEqual(inputs(5), inputs(5))
        self.assertNotEqual(inputs(5), inputs(6))

    def test_generated_shapes(self):
        rng = random.Random(9)
        for vs, es, tc in ((*gen.general_graph(rng, 20, 30), 2),
                           (*gen.lifted_graph(rng, 6, 10), 1),
                           (*gen.tree_graph(rng, 15), 0)):
            self.assertEqual(gen.expected_tc(vs, es), tc)
            self.assertEqual(oracles.Graph(vs, es).n_components(), 1)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
