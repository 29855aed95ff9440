"""Dinic's maximum-flow algorithm.

A small, dependency-free implementation supporting the vertex-capacity
trick (split each vertex into ``in``/``out`` halves) used by the min-cut
subcircuit extraction.  Capacities are integers; ``INF`` marks uncuttable
edges.

Nodes are small integers (:meth:`FlowNetwork.add_node`); :meth:`node`
maps hashable keys onto them for callers that prefer names.  The network
keeps its flow between calls: :meth:`augment` continues from the current
residual capacities, and :meth:`add_capacity` / :meth:`withdraw` change
the network under an existing flow while keeping it a valid flow, so a
grown network reaches its maximum flow without starting from zero.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Set, Tuple

INF = 1 << 60


class FlowNetwork:
    """A directed flow network over integer nodes."""

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        # Arc arrays: to[e], cap[e] (residual).  Arcs come in pairs: the
        # forward arc e is even and e ^ 1 is its reverse, whose residual
        # capacity is the flow on e.
        self._to: List[int] = []
        self._cap: List[int] = []
        self._adj: List[List[int]] = []

    def add_node(self) -> int:
        self._adj.append([])
        return len(self._adj) - 1

    def node(self, key: Hashable) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = self.add_node()
            self._index[key] = idx
        return idx

    def add_arc(self, u: int, v: int, capacity: int) -> int:
        """Add arc ``u -> v``; returns its (even) arc index."""
        if capacity < 0:
            raise ValueError("negative capacity")
        arc = len(self._to)
        self._adj[u].append(arc)
        self._to.append(v)
        self._cap.append(capacity)
        self._adj[v].append(arc + 1)
        self._to.append(u)
        self._cap.append(0)
        return arc

    def add_edge(self, src: Hashable, dst: Hashable, capacity: int) -> None:
        self.add_arc(self.node(src), self.node(dst), capacity)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    # -- changing the network under a flow -------------------------------

    def add_capacity(self, arc: int, amount: int) -> None:
        """Raise forward arc ``arc``'s capacity; the flow stays valid."""
        self._cap[arc] += amount

    def withdraw(self, u: int) -> int:
        """Cancel every unit of flow through ``u`` and cut all of its
        arcs; returns the flow cancelled.  Each unit is taken back along
        one flow-carrying path through ``u``, so the remaining flow is
        still valid.  The network must be acyclic."""
        cancelled = 0
        while True:
            path = self._flow_path(u, backward=True)
            if not path:
                break
            path.extend(self._flow_path(u, backward=False))
            amount = min(self._cap[arc ^ 1] for arc in path)
            for arc in path:
                self._cap[arc] += amount
                self._cap[arc ^ 1] -= amount
            cancelled += amount
        for arc in self._adj[u]:
            self._cap[arc] = 0
            self._cap[arc ^ 1] = 0
        return cancelled

    def _flow_path(self, u: int, backward: bool) -> List[int]:
        """Forward arcs carrying flow on a path into ``u`` (backward) or
        out of it, followed until a node with no such arc (the source or
        the sink)."""
        cap, to, adj = self._cap, self._to, self._adj
        parity = 1 if backward else 0
        path: List[int] = []
        node = u
        while True:
            for arc in adj[node]:
                if arc & 1 == parity and cap[arc | 1] > 0:
                    path.append(arc & ~1)
                    node = to[arc]
                    break
            else:
                return path

    # -- maximum flow ---------------------------------------------------------

    def max_flow(self, source: Hashable, sink: Hashable) -> int:
        return self.augment(self.node(source), self.node(sink))

    def augment(self, s: int, t: int) -> int:
        """Augment the current flow to a maximum ``s``-``t`` flow (Dinic);
        returns the flow added."""
        flow = 0
        while True:
            level = self._bfs_levels(s, t)
            if level[t] < 0:
                return flow
            iters = [0] * self.num_nodes
            while True:
                pushed = self._dfs_push(s, t, level, iters)
                if pushed == 0:
                    break
                flow += pushed

    def _bfs_levels(self, s: int, t: int) -> List[int]:
        cap, to, adj = self._cap, self._to, self._adj
        level = [-1] * self.num_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            next_level = level[u] + 1
            for e in adj[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = next_level
                    if v == t:
                        return level
                    queue.append(v)
        return level

    def _dfs_push(
        self, s: int, t: int, level: List[int], iters: List[int]
    ) -> int:
        cap, to, adj = self._cap, self._to, self._adj
        stack: List[Tuple[int, int]] = [(s, INF)]
        path: List[int] = []  # arcs taken
        while stack:
            node, budget = stack[-1]
            if node == t:
                pushed = budget
                for e in path:
                    pushed = min(pushed, cap[e])
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                return pushed
            advanced = False
            arcs = adj[node]
            while iters[node] < len(arcs):
                e = arcs[iters[node]]
                v = to[e]
                if cap[e] > 0 and level[v] == level[node] + 1:
                    stack.append((v, min(budget, cap[e])))
                    path.append(e)
                    advanced = True
                    break
                iters[node] += 1
            if not advanced:
                level[node] = -1  # dead end
                stack.pop()
                if path:
                    path.pop()
                if stack:
                    iters[stack[-1][0]] += 1
        return 0

    # ------------------------------------------------------------------

    def residual_reach(self, s: int) -> List[bool]:
        """Which nodes ``s`` reaches in the residual graph.

        After a maximum flow this is the source side of the minimum cut
        closest to the source -- the same set for *every* maximum flow,
        so a flow grown from an earlier one yields the same cut."""
        cap, to, adj = self._cap, self._to, self._adj
        seen = [False] * self.num_nodes
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = to[e]
                if cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen

    def reachable_in_residual(self, source: Hashable) -> Set[Hashable]:
        """Node keys reachable from ``source`` in the residual graph.

        Call after :meth:`max_flow`; the min cut is the set of saturated
        edges leaving this set."""
        seen = self.residual_reach(self.node(source))
        return {key for key, idx in self._index.items() if seen[idx]}
