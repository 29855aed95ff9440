"""Post-image and pre-image computation with clustered transition
relations and early quantification.

The transition relation is kept as a conjunction of per-register
partitions ``T_i = (next_i <-> f_i)``, greedily clustered up to a BDD node
limit (the IWLS-95 recipe, simplified).  During a relational product the
quantified variables are eliminated at the last cluster whose support
mentions them -- the "early quantification" that lets post-image cope with
abstract models that have thousands of primary inputs (Section 2.2: "most
of the primary inputs will be quantified out early").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd import Function
from repro.mc.encode import SymbolicEncoding, next_var_name
from repro.obs import tracer as obs


class ImageComputer:
    """Reusable post/pre-image operators for one encoding."""

    def __init__(
        self,
        encoding: SymbolicEncoding,
        cluster_node_limit: int = 2000,
    ) -> None:
        self.encoding = encoding
        self.bdd = encoding.bdd
        self.cluster_node_limit = cluster_node_limit
        self.clusters: List[Function] = self._build_clusters()
        self._post_schedule = self._schedule(
            set(encoding.current_vars) | set(encoding.input_vars)
        )
        self._pre_schedule = self._schedule(
            {next_var_name(r) for r in encoding.current_vars}
            | set(encoding.input_vars)
        )
        self._pre_keep_inputs_schedule = self._schedule(
            {next_var_name(r) for r in encoding.current_vars}
        )

    def _build_clusters(self) -> List[Function]:
        bdd = self.bdd
        clusters: List[Function] = []
        current: Optional[Function] = None
        with obs.span("mc.cluster") as phase:
            for reg in self.encoding.current_vars:
                part = bdd.var(next_var_name(reg)).equiv(
                    self.encoding.next_state_function(reg)
                )
                if current is None:
                    current = part
                else:
                    merged = current & part
                    if merged.size() > self.cluster_node_limit:
                        clusters.append(current)
                        current = part
                    else:
                        current = merged
            if current is not None:
                clusters.append(current)
            if not clusters:
                clusters.append(bdd.true)
            phase.set(clusters=len(clusters))
        return clusters

    def _schedule(self, quantified: Set[str]) -> List[List[str]]:
        """For each cluster, the quantified variables whose last occurrence
        (over cluster supports) is that cluster.  Variables appearing in no
        cluster are scheduled at index 0 (they can only come from the
        argument set)."""
        last_seen: Dict[str, int] = {}
        for index, cluster in enumerate(self.clusters):
            for name in cluster.support():
                if name in quantified:
                    last_seen[name] = index
        schedule: List[List[str]] = [[] for _ in self.clusters]
        for name in quantified:
            schedule[last_seen.get(name, 0)].append(name)
        return schedule

    # ------------------------------------------------------------------

    def post_image(self, states: Function) -> Function:
        """States reachable in one cycle from ``states`` (over current
        vars); result is over current vars again."""
        bdd = self.bdd
        acc = states
        for cluster, qvars in zip(self.clusters, self._post_schedule):
            acc = bdd.and_exists(acc, cluster, qvars)
        return self.encoding.rename_next_to_current(acc)

    def pre_image(self, states: Function) -> Function:
        """States that can reach ``states`` in one cycle."""
        bdd = self.bdd
        acc = self.encoding.rename_current_to_next(states)
        for cluster, qvars in zip(self.clusters, self._pre_schedule):
            acc = bdd.and_exists(acc, cluster, qvars)
        return acc

    def pre_image_keep_inputs(self, states: Function) -> Function:
        """Pre-image quantifying only the next-state variables: the result
        relates predecessor states *and the input values* that drive the
        transition.  The hybrid engine needs this richer relation -- its R
        cubes mention min-cut inputs (Section 2.2, Figure 1)."""
        bdd = self.bdd
        acc = self.encoding.rename_current_to_next(states)
        for cluster, qvars in zip(self.clusters, self._pre_keep_inputs_schedule):
            acc = bdd.and_exists(acc, cluster, qvars)
        return acc

    def constrained_pre_image(
        self, states: Function, constraint: Function
    ) -> Function:
        """``pre_image(states) & constraint`` computed with the constraint
        conjoined up front (cheaper when the constraint is small)."""
        return self.pre_image(states) & constraint
