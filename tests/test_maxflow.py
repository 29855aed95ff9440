"""Tests for the Dinic max-flow implementation."""

import itertools
import random

from repro.mincut import FlowNetwork
from repro.mincut.maxflow import INF


class TestSmallNetworks:
    def test_single_edge(self):
        net = FlowNetwork()
        net.add_edge("s", "t", 5)
        assert net.max_flow("s", "t") == 5

    def test_series_bottleneck(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 10)
        net.add_edge("a", "t", 3)
        assert net.max_flow("s", "t") == 3

    def test_parallel_paths(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 2)
        net.add_edge("s", "b", 3)
        net.add_edge("a", "t", 2)
        net.add_edge("b", "t", 3)
        assert net.max_flow("s", "t") == 5

    def test_classic_crossover(self):
        """The textbook network needing a flow-canceling augmenting path."""
        net = FlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("s", "b", 1)
        net.add_edge("a", "b", 1)
        net.add_edge("a", "t", 1)
        net.add_edge("b", "t", 1)
        assert net.max_flow("s", "t") == 2

    def test_disconnected(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 4)
        net.add_edge("b", "t", 4)
        assert net.max_flow("s", "t") == 0

    def test_infinite_edges(self):
        net = FlowNetwork()
        net.add_edge("s", "a", INF)
        net.add_edge("a", "t", 7)
        assert net.max_flow("s", "t") == 7

    def test_min_cut_side(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("a", "b", 10)
        net.add_edge("b", "t", 10)
        net.max_flow("s", "t")
        side = net.reachable_in_residual("s")
        assert "s" in side
        assert "a" not in side  # the s->a edge is the cut


class TestRandomizedAgainstBruteForce:
    def _brute_force_min_cut(self, edges, nodes, s, t):
        """Minimum s-t cut by enumerating all node bipartitions."""
        best = INF
        others = [n for n in nodes if n not in (s, t)]
        for bits in itertools.product((0, 1), repeat=len(others)):
            side = {s} | {n for n, b in zip(others, bits) if b}
            value = sum(
                cap for (u, v, cap) in edges if u in side and v not in side
            )
            best = min(best, value)
        return best

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(42)
        for trial in range(25):
            nodes = list(range(6))
            edges = []
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.4:
                        edges.append((u, v, rng.randint(1, 6)))
            net = FlowNetwork()
            for u, v, cap in edges:
                net.add_edge(u, v, cap)
            net.node(0)
            net.node(5)
            flow = net.max_flow(0, 5)
            expected = self._brute_force_min_cut(edges, nodes, 0, 5)
            assert flow == expected, f"trial {trial}"

    def test_flow_conservation(self):
        rng = random.Random(7)
        net = FlowNetwork()
        edges = []
        for _ in range(30):
            u, v = rng.sample(range(8), 2)
            cap = rng.randint(1, 5)
            net.add_edge(u, v, cap)
            edges.append((u, v, cap))
        flow = net.max_flow(0, 7)
        assert flow >= 0
        # Residual reachability excludes the sink exactly when flow is
        # maximal (no augmenting path remains).
        side = net.reachable_in_residual(0)
        assert 7 not in side


class TestGrowingUnderAFlow:
    """``withdraw`` and ``add_capacity`` change a network that already
    carries a maximum flow; augmenting then must give the cold network's
    flow value and the same residual source side (the source side is
    the same for every maximum flow)."""

    @staticmethod
    def _dag(rng, n=8):
        return [
            (u, v, rng.choice([1, 1, 2, 3, INF]))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]

    @staticmethod
    def _network(n, edges):
        net = FlowNetwork()
        for _ in range(n):
            net.add_node()
        return net, [net.add_arc(u, v, cap) for u, v, cap in edges]

    def test_withdraw_matches_cold(self):
        rng = random.Random(11)
        for _ in range(60):
            n = 8
            edges = self._dag(rng, n)
            gone = rng.randrange(1, n - 1)
            warm, _ = self._network(n, edges)
            warm.augment(0, n - 1)
            warm.withdraw(gone)
            added = warm.augment(0, n - 1)
            cold, _ = self._network(
                n, [e for e in edges if gone not in e[:2]]
            )
            value = cold.augment(0, n - 1)
            assert added <= value
            assert warm.residual_reach(0) == cold.residual_reach(0)

    def test_add_capacity_matches_cold(self):
        rng = random.Random(12)
        for _ in range(60):
            n = 8
            edges = self._dag(rng, n)
            if not edges:
                continue
            warm, arcs = self._network(n, edges)
            before = warm.augment(0, n - 1)
            k = rng.randrange(len(edges))
            warm.add_capacity(arcs[k], 2)
            after = before + warm.augment(0, n - 1)
            u, v, cap = edges[k]
            cold, _ = self._network(
                n, edges[:k] + [(u, v, cap + 2)] + edges[k + 1:]
            )
            assert after == cold.augment(0, n - 1)
            assert warm.residual_reach(0) == cold.residual_reach(0)
