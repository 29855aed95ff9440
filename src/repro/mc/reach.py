"""Forward reachability with onion rings and on-the-fly target checks.

This is the fixpoint engine of RFN Step 2 (and of the plain-model-checker
baseline): compute the post-image sequence ``S_0 = A``, ``S_i =
post(S_{i-1})``, accumulate the reached set, stop when it closes (property
True on this model) or when a target state shows up in some ``S_k``.  The
rings ``S_1..S_k`` are kept because the hybrid trace engine walks them
backwards (Section 2.2).

Resource limits (iterations, BDD nodes, wall-clock) end the run with the
``RESOURCE_OUT`` outcome -- the honest answer a Python BDD engine must
give on designs the paper's C engines also found hard.  When a runtime
:class:`~repro.runtime.budget.Budget` is attached via
``ReachLimits.budget``, its deadline/memory watermark is polled inside
image computations (through the manager's ``checkpoint_hook``) and the
abort is folded into the same ``RESOURCE_OUT`` outcome with the
exhausted resource recorded in ``ReachResult.abort_resource``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.bdd import Function
from repro.kernel.perf import PERF
from repro.mc.images import ImageComputer
from repro.obs import tracer as obs
from repro.runtime.abort import EngineAbort
from repro.runtime.budget import Budget


class ReachOutcome(enum.Enum):
    FIXPOINT = "fixpoint"  # closed without hitting the target
    TARGET_HIT = "target_hit"
    RESOURCE_OUT = "resource_out"


@dataclass
class ReachLimits:
    max_iterations: Optional[int] = None
    max_nodes: Optional[int] = 2_000_000
    max_seconds: Optional[float] = None
    #: optional runtime budget polled inside image computations
    budget: Optional[Budget] = None


@dataclass
class ReachResult:
    outcome: ReachOutcome
    reached: Function
    rings: List[Function] = field(default_factory=list)  # S_0 .. S_k
    iterations: int = 0
    hit_ring: Optional[int] = None
    seconds: float = 0.0
    #: which resource forced RESOURCE_OUT ("nodes", "time", ...), if known
    abort_resource: Optional[str] = None

    @property
    def fixpoint_reached(self) -> bool:
        return self.outcome is ReachOutcome.FIXPOINT


def forward_reach(
    images: ImageComputer,
    init: Function,
    target: Optional[Function] = None,
    limits: Optional[ReachLimits] = None,
    keep_rings: bool = True,
    step_hook: Optional[Callable[[int, Function], None]] = None,
) -> ReachResult:
    """Forward fixpoint from ``init``; stops early when ``target``
    intersects a ring.

    ``step_hook(iteration, reached)`` runs after every image step --
    RFN uses it to trigger dynamic variable reordering at safe points.
    """
    limits = limits or ReachLimits()
    budget = limits.budget
    bdd = images.bdd
    start = time.monotonic()
    reached = init
    frontier = init
    rings: List[Function] = [init]
    iteration = 0
    phase = obs.span("mc.reach", registers=len(images.encoding.circuit.registers))

    # A hard allocation ceiling turns a blowup *inside* one image step
    # into a clean RESOURCE_OUT (the soft per-step check only runs between
    # steps).  Allocation is append-only, so leave generous headroom.
    saved_node_limit = bdd.node_limit
    max_nodes = limits.max_nodes
    if budget is not None and budget.max_bdd_nodes is not None:
        max_nodes = (
            budget.max_bdd_nodes
            if max_nodes is None
            else min(max_nodes, budget.max_bdd_nodes)
        )
    if max_nodes is not None:
        bdd.node_limit = max(
            max_nodes * 4, len(bdd._level) + max_nodes
        )
    # The checkpoint hook lets the budget's deadline fire *inside* one
    # enormous image computation, not just between fixpoint steps.
    saved_hook = bdd.checkpoint_hook
    if budget is not None:
        bdd.checkpoint_hook = budget.hook("bdd")

    def make_result(
        outcome: ReachOutcome,
        hit: Optional[int] = None,
        resource: Optional[str] = None,
    ):
        bdd.node_limit = saved_node_limit
        bdd.checkpoint_hook = saved_hook
        PERF.gauge("bdd.nodes", bdd.total_nodes())
        phase.set(
            result=outcome.value,
            iterations=iteration,
            nodes=bdd.total_nodes(),
        )
        if resource is not None:
            phase.set(resource=resource)
        phase.__exit__(None, None, None)
        return ReachResult(
            outcome=outcome,
            reached=reached,
            rings=rings if keep_rings else [],
            iterations=iteration,
            hit_ring=hit,
            seconds=time.monotonic() - start,
            abort_resource=resource,
        )

    if target is not None and not (init & target).is_false:
        return make_result(ReachOutcome.TARGET_HIT, hit=0)

    while True:
        if limits.max_iterations is not None and iteration >= limits.max_iterations:
            return make_result(
                ReachOutcome.RESOURCE_OUT, resource="iterations"
            )
        if limits.max_seconds is not None and (
            time.monotonic() - start > limits.max_seconds
        ):
            return make_result(ReachOutcome.RESOURCE_OUT, resource="time")
        if max_nodes is not None and bdd.total_nodes() > max_nodes:
            bdd.collect_garbage()
            if bdd.total_nodes() > max_nodes:
                return make_result(
                    ReachOutcome.RESOURCE_OUT, resource="nodes"
                )
        iteration += 1
        try:
            if budget is not None:
                budget.checkpoint(engine="reach")
            image = images.post_image(frontier)
            grown = reached | image
        except EngineAbort as abort:
            # BDDNodeLimit is a NodesOut, so real allocation blowups and
            # budget deadline/memory aborts both land here.
            return make_result(
                ReachOutcome.RESOURCE_OUT, resource=abort.resource
            )
        # Canonicity makes the closure test one node comparison: the image
        # adds nothing exactly when the union is the reached set itself.
        if grown == reached:
            return make_result(ReachOutcome.FIXPOINT)
        if keep_rings:
            rings.append(image)
        reached = grown
        if target is not None and not (image & target).is_false:
            return make_result(ReachOutcome.TARGET_HIT, hit=iteration)
        frontier = image
        if step_hook is not None:
            step_hook(iteration, reached)
