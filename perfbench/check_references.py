"""Tests of the references and the update streams on small graphs whose
answers are worked out by hand in the comments.

Run from the repository root: ``python3 perfbench/check_references.py``.
"""

from __future__ import annotations

import unittest

import numpy as np

import inputs as spec
import reference as ref


def graph(n, edges):
    src, dst = zip(*edges) if edges else ((), ())
    return ref.adjacency(n, src, dst)


class PageRankTest(unittest.TestCase):
    def test_seed_isolated_and_cycle(self):
        # 0 -> 1 <-> 2, node 3 isolated; n = 4, teleport t = 0.0375.
        # Start: seed 0 and isolated 3 at t, nodes 1 and 2 at 1/4.
        # Step 1: x1 = t + .85 (t + .25) = .281875, x2 = t + .85 * .25.
        # Step 2: x1 = t + .85 (t + .25) again, x2 = t + .85 * .281875.
        a = graph(4, [(0, 1), (1, 2), (2, 1)])
        np.testing.assert_allclose(
            ref.pagerank(a, 1), [0.0375, 0.281875, 0.25, 0.0375]
        )
        np.testing.assert_allclose(
            ref.pagerank(a, 2), [0.0375, 0.281875, 0.27709375, 0.0375]
        )

    def test_sink_pulls_once_from_final_values(self):
        # 0 -> 1 -> 2; n = 3, t = 0.05.  One step: x1 = t + .85 t.
        # The sink then pulls from that: x2 = t + .85 * .0925.
        a = graph(3, [(0, 1), (1, 2)])
        np.testing.assert_allclose(
            ref.pagerank(a, 1), [0.05, 0.0925, 0.128625]
        )

    def test_parallel_edges_count_twice(self):
        # 0 => 1 twice, 0 -> 2 once: node 0 sends 2/3 of its mass to 1.
        # n = 3, t = .05; both targets are sinks, pulled from x0 = t.
        a = ref.adjacency(3, [0, 0, 0], [1, 1, 2])
        np.testing.assert_allclose(
            ref.pagerank(a, 1),
            [0.05, 0.05 + 0.85 * 0.05 * 2 / 3, 0.05 + 0.85 * 0.05 / 3],
        )

    def test_converged_two_cycle(self):
        # 0 <-> 1: x = .075 + .85 x, so x = 1/2 each.
        a = graph(2, [(0, 1), (1, 0)])
        np.testing.assert_allclose(
            ref.pagerank_converged(a), [0.5, 0.5], atol=1e-12
        )


class PersonalizedTest(unittest.TestCase):
    def test_one_and_two_sources(self):
        # 0 <-> 1.  Source {0}: x0 = (.15, 0), x1 = (.15, .85 * .15).
        # Sources {0, 1}: x0 = (.075, .075), x1 = .075 + .85 * .075 each.
        a = graph(2, [(0, 1), (1, 0)])
        got = ref.ppr(a, [[0], [0, 1]], 1)
        np.testing.assert_allclose(got[:, 0], [0.15, 0.1275])
        np.testing.assert_allclose(got[:, 1], [0.13875, 0.13875])


class PathTest(unittest.TestCase):
    def test_bfs_levels(self):
        a = graph(4, [(0, 1), (1, 2), (3, 0)])
        np.testing.assert_array_equal(
            ref.bfs_levels(a, 0), [0, 1, 2, np.inf]
        )

    def test_sssp_takes_lightest_route(self):
        # 0 -> 1 costs 5 or 1.5 (parallel edges), 0 -> 2 -> 1 costs 2.
        a = ref.min_weight_adjacency(
            3, [0, 0, 0, 2], [1, 1, 2, 1], [5.0, 1.5, 1.0, 1.0]
        )
        np.testing.assert_allclose(ref.sssp(a, 0), [0.0, 1.5, 1.0])


class ReplayTest(unittest.TestCase):
    def test_apply_and_reject(self):
        replay = ref.EdgeReplay(3, [0, 1], [1, 2])
        replay.apply([2], [0], [0], [1])
        np.testing.assert_array_equal(replay.keys, [1 * 3 + 2, 2 * 3 + 0])
        with self.assertRaises(ValueError):
            replay.apply([], [], [0], [1])  # no longer present
        with self.assertRaises(ValueError):
            replay.apply([1], [2], [], [])  # already present

    def test_churn_stream_replays_over_two_cycles(self):
        rng = np.random.default_rng(0)
        n = 40
        src = rng.integers(0, n, 200)
        dst = rng.integers(0, n, 200)
        keys = np.unique(src * n + dst)
        src, dst = keys // n, keys % n
        ins, dels = spec.churn_windows(rng, n, src, dst, windows=4, k=3)
        replay = ref.EdgeReplay(n, src, dst)
        for epoch in range(1, 2 * 4 + 1):
            replay.apply(*spec.window_batch(ins, dels, epoch, n))
            window = (epoch - 1) % 4
            want = np.union1d(np.setdiff1d(keys, dels[window]), ins[window])
            np.testing.assert_array_equal(replay.keys, want)


if __name__ == "__main__":
    unittest.main()
