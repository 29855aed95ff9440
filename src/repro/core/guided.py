"""Abstract-trace-guided search for concrete error traces (Step 3).

RFN never runs symbolic image computation on the original design.  To
falsify a property it instead:

1. checks whether the abstract error trace is already concrete (only
   assigns primary inputs of the original design) -- then a cheap
   simulation replay settles it;
2. otherwise runs *guided* sequential ATPG on the (COI-reduced) original
   design: the abstract trace's length bounds the search depth (the
   shortest concrete error trace can only be longer) and its cycle cubes
   become per-cycle constraint cubes that prune the ATPG search --
   "sequential ATPG with guidance can search for an order of magnitude
   more cycles" (Section 2.3).

The future-work extension of Section 5 (guiding with a *set* of traces)
is supported: pass several candidate traces and each is tried in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.atpg.engine import AtpgOutcome, atpg_limits, sequential_atpg
from repro.core.property import UnreachabilityProperty
from repro.trace import Trace
from repro.kernel.bitsim import BitParallelSimulator, pack_value
from repro.kernel.scache import coi_circuit
from repro.netlist.circuit import Circuit
from repro.runtime.budget import Limits
from repro.sim.simulator import Simulator


@dataclass
class GuidedSearchResult:
    found: bool
    trace: Optional[Trace] = None
    method: str = ""  # "direct-replay" | "guided-atpg" | "unguided-atpg"
    outcome: Optional[AtpgOutcome] = None
    conflicts: int = 0


def trace_is_concrete(original: Circuit, trace: Trace) -> bool:
    """Does the abstract trace assign only primary inputs of the original
    design?  (Then it is already an input sequence for the original,
    Section 2.3.)"""
    return all(
        original.is_input(sig)
        for cycle in range(trace.length)
        for sig in trace.cube_at(cycle)
    )


def replay_trace(
    original: Circuit,
    prop: UnreachabilityProperty,
    trace: Trace,
) -> Optional[Trace]:
    """Simulate the trace's input cubes on the original design from reset;
    returns a concrete error trace if a bad state is visited.

    Unassigned inputs are driven to 0 and free-init registers start at 0
    (any completion of a concrete input trace is as good as another for
    replay purposes).  Only the property's cone of influence decides
    whether a bad state is visited, so the replay runs one lane of the
    bit-parallel kernel over the COI circuit, and only a hit is lifted
    to the full design.
    """
    reduced = coi_circuit(original, prop.signals())
    sim = BitParallelSimulator(reduced)
    state = sim.initial_state(1, default=0)
    target = [
        (name, pack_value(value, 1)) for name, value in prop.target.items()
    ]
    for cycle in range(trace.length):
        if all(state[name] == planes for name, planes in target):
            cubes = trace.inputs[: cycle + 1]
            return _lift_trace(
                original,
                reduced,
                Trace(states=[{}] * len(cubes), inputs=cubes),
            )
        cube = trace.inputs[cycle]
        vector = {
            name: pack_value(cube.get(name, 0), 1) for name in reduced.inputs
        }
        _, state = sim.step(state, vector, 1)
    return None


def guided_concrete_search(
    original: Circuit,
    prop: UnreachabilityProperty,
    traces: Sequence[Trace],
    limits: Optional[Limits] = None,
    use_guidance: bool = True,
    extra_depth: int = 0,
    max_gate_frames: Optional[int] = None,
    incremental: bool = True,
) -> GuidedSearchResult:
    """Step 3: search for an error trace on the original design.

    ``traces`` are abstract error traces, most promising first.  With
    ``use_guidance`` disabled the ATPG runs with only the depth bound
    (the ablation baseline for the guidance claim).

    ``max_gate_frames`` caps the unrolled instance size (COI gates x
    depth) handed to sequential ATPG; beyond it only the cheap replay
    path runs.  This keeps paper-scale designs (tens of thousands of COI
    gates) moving through the CEGAR loop instead of stalling in one
    enormous SAT instance -- their bugs are still found once the abstract
    trace becomes concrete enough to replay.
    """
    limits = atpg_limits(limits)
    # The COI circuit is memoized per design, and its pooled session is
    # the one refinement probes query, so the searches of one CEGAR run
    # share one unrolling and every clause learned on it.
    reduced = coi_circuit(original, prop.signals())
    total_conflicts = 0
    result = None
    for trace in traces:
        if limits.budget is not None:
            limits.budget.checkpoint(engine="guided")
        # Cheap path first: direct replay of concrete traces.
        concrete = replay_trace(original, prop, trace)
        if concrete is not None:
            return GuidedSearchResult(
                True, trace=concrete, method="direct-replay"
            )
        depth = trace.length + extra_depth
        if (
            max_gate_frames is not None
            and reduced.num_gates * depth > max_gate_frames
        ):
            continue
        cubes = {}
        if use_guidance:
            cubes = {
                cycle: {
                    name: value
                    for name, value in trace.cube_at(cycle).items()
                    if reduced.is_defined(name)
                }
                for cycle in range(trace.length)
            }
        cubes.setdefault(depth - 1, {}).update(prop.target)
        result = sequential_atpg(
            reduced,
            depth,
            cubes,
            limits=limits,
            skip_missing=True,
            incremental=incremental,
        )
        total_conflicts += result.conflicts
        if result.outcome is AtpgOutcome.TRACE_FOUND:
            full = _lift_trace(original, reduced, result.trace)
            return GuidedSearchResult(
                True,
                trace=full,
                method="guided-atpg" if use_guidance else "unguided-atpg",
                outcome=result.outcome,
                conflicts=total_conflicts,
            )
    return GuidedSearchResult(
        False,
        method="guided-atpg" if use_guidance else "unguided-atpg",
        outcome=result.outcome if result is not None else None,
        conflicts=total_conflicts,
    )


def _lift_trace(original: Circuit, reduced: Circuit, trace: Trace) -> Trace:
    """Extend a COI-subcircuit trace to the original design: inputs outside
    the COI are driven to 0, registers outside evolve from their reset
    values under simulation."""
    sim = Simulator(original)
    state = sim.initial_state(default=0)
    state.update(
        {
            name: value
            for name, value in trace.states[0].items()
            if original.is_register_output(name)
        }
    )
    states: List[dict] = []
    inputs: List[dict] = []
    for cycle in range(trace.length):
        vector = {name: 0 for name in original.inputs}
        vector.update(
            {
                name: value
                for name, value in trace.inputs[cycle].items()
                if original.is_input(name)
            }
        )
        states.append(dict(state))
        inputs.append(vector)
        _, state = sim.step(state, vector)
    return Trace(states=states, inputs=inputs, circuit_name=original.name)
