"""Two-phase refinement: crucial-register identification (Step 4).

Phase 1 -- *3-valued simulation*: replay the abstract error trace
step-by-step on the original design with every unassigned register and
input at X.  A register whose simulated value conflicts with the trace's
assignment (X conflicts with nothing) is a crucial-register candidate:
adding its fanin cone to the abstract model would force the trace's value
to disagree, invalidating the trace.  When the trace is used for the next
step, conflicting values are overridden with the trace's values
(Section 2.4).  If no conflict appears (rare), the registers the trace
assigns most frequently become the candidates.

Phase 2 -- *greedy sequential-ATPG minimization*: add candidates one at a
time to the abstract model until sequential ATPG reports the trace
unsatisfiable on the refined model, discard the untouched rest, then try
to remove each earlier addition, keeping it out only if the trace stays
unsatisfiable.  If ATPG ever aborts on its budget, fail safe by keeping
all candidates.

Incrementally, every probe of phase 2 -- across both passes and every
CEGAR iteration -- is one query on the pooled solver session over the
property's cone-of-influence circuit: the candidate register set is the
query's *active* set (:mod:`repro.atpg.encode`), so no probe extracts a
subcircuit or builds a solver.  Probe answers are satisfiability facts
about the candidate model, the same on either path.

Within one minimisation the shared path keeps the last satisfying trace
as a :class:`Witness`.  A probe that the witness already satisfies --
initial values and transitions of every active register, every cube
literal -- is answered ``TRACE_FOUND`` without a solve: the unrolling
is total and inactive registers are free, so the witness extends to a
model of that probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.atpg.encode import Unroller
from repro.atpg.engine import AtpgOutcome, TraceValuation, sequential_atpg
from repro.core.abstraction import Abstraction
from repro.kernel.bitsim import BitParallelSimulator, pack_value, planes_value
from repro.kernel.perf import PERF
from repro.kernel.scache import coi_circuit
from repro.trace import Trace
from repro.netlist.circuit import Circuit
from repro.netlist.ops import subcircuit_signals
from repro.obs import tracer as obs
from repro.runtime.budget import Limits
from repro.sim.logic3 import X


@dataclass
class RefinementStats:
    candidates: int = 0
    selected: int = 0
    #: phase-2 probes solved by sequential ATPG
    atpg_calls: int = 0
    #: phase-2 probes answered by the previous probe's witness
    answered: int = 0
    conflicts_found: bool = True
    minimized: bool = False


@dataclass
class RefinementResult:
    registers: List[str]
    stats: RefinementStats = field(default_factory=RefinementStats)


def crucial_register_candidates(
    abstraction: Abstraction,
    trace: Trace,
    fallback_count: int = 8,
    runtime=None,
) -> RefinementResult:
    """Phase 1: 3-valued simulation of the abstract error trace on the
    original design; conflicting registers outside the abstract model are
    the candidates, ordered by conflict count (then first conflict).

    ``runtime`` is an optional :class:`repro.runtime.Budget` whose
    checkpoint is threaded into the kernel replay."""
    original = abstraction.original
    model = abstraction.model
    sim = BitParallelSimulator(original)
    if runtime is not None:
        sim.checkpoint = runtime.hook("refine")

    conflict_count: Dict[str, int] = {}
    first_conflict: Dict[str, int] = {}

    # Single-lane 3-valued replay on the compiled kernel: every register
    # starts at X except those the trace's first cube assigns.
    state = {name: pack_value(X, 1) for name in original.registers}
    with PERF.timed("kernel.replay"):
        for name, value in trace.cube_at(0).items():
            if original.is_register_output(name):
                state[name] = pack_value(value, 1)
        for cycle in range(trace.length):
            cube = trace.cube_at(cycle)
            register_cube = {
                name: value
                for name, value in cube.items()
                if original.is_register_output(name)
            }
            for name, expected in register_cube.items():
                actual = planes_value(state[name], 0)
                if actual != X and actual != expected:
                    conflict_count[name] = conflict_count.get(name, 0) + 1
                    first_conflict.setdefault(name, cycle)
            # Use the trace's values from here on (override conflicts and
            # fill in unknowns) and drive the primary inputs from the trace.
            drive = {
                name: pack_value(value, 1)
                for name, value in register_cube.items()
            }
            drive.update(
                {
                    name: pack_value(value, 1)
                    for name, value in cube.items()
                    if original.is_input(name)
                }
            )
            frame = sim.evaluate(state, drive, 1)
            state = sim.next_state(frame)

    in_model = set(model.registers)
    candidates = [
        name for name in conflict_count if name not in in_model
    ]
    candidates.sort(
        key=lambda n: (-conflict_count[n], first_conflict[n], n)
    )
    stats = RefinementStats(candidates=len(candidates))
    if not candidates:
        # Rare per the paper: no conflicts.  Fall back to the registers the
        # trace assigns most often (among pseudo-inputs of the model).
        stats.conflicts_found = False
        frequency = trace.assigned_signals()
        pseudo = [
            name
            for name in abstraction.pseudo_input_registers()
            if name in frequency
        ]
        pseudo.sort(key=lambda n: (-frequency[n], n))
        candidates = pseudo[:fallback_count]
        stats.candidates = len(candidates)
    return RefinementResult(registers=candidates, stats=stats)


class Witness:
    """The last satisfying trace of one phase-2 minimisation on a
    cone-of-influence circuit, as its kernel valuation."""

    def __init__(self, circuit: Circuit) -> None:
        self.initial = Unroller.initial_values(circuit)
        self.valuation: Optional[TraceValuation] = None
        self.answered = 0

    def satisfies(
        self, cubes: Dict[int, Dict[str, int]], active: Iterable[str]
    ) -> bool:
        """Does the witness meet the probe of ``cubes`` on the model
        whose kept registers are ``active``: initial values and
        transitions of every active register, and every cube literal?"""
        return self.valuation is not None and (
            self.valuation.mismatch(cubes, active, self.initial) is None
        )


def trace_satisfiable_on(
    model: Circuit,
    trace: Trace,
    limits: Optional[Limits] = None,
    incremental: bool = True,
    active: Optional[Iterable[str]] = None,
    *,
    witness: Optional[Witness] = None,
) -> AtpgOutcome:
    """Is the error trace (as per-cycle constraint cubes) satisfiable on a
    candidate abstract model?  Three-way ATPG answer.

    The candidate is ``model`` itself, or -- given ``active`` -- the
    abstract model of ``model`` that keeps the ``active`` registers,
    ``model`` being a cone-of-influence circuit (its outputs are the
    property signals).  The cubes keep only that model's signals.

    A ``witness`` (with ``active``) answers the probe when it satisfies
    it, and takes over the trace of every satisfiable solve."""
    if active is None:
        defined = model.is_defined
    else:
        active = frozenset(active)
        defined = subcircuit_signals(model, active, model.outputs).__contains__
    cubes = {
        cycle: {
            name: value
            for name, value in trace.cube_at(cycle).items()
            if defined(name)
        }
        for cycle in range(trace.length)
    }
    if witness is not None and witness.satisfies(cubes, active):
        witness.answered += 1
        return AtpgOutcome.TRACE_FOUND
    result = sequential_atpg(
        model,
        trace.length,
        cubes,
        limits=limits,
        skip_missing=True,
        incremental=incremental,
        active=active,
    )
    if witness is not None and result.found:
        witness.valuation = result.valuation
    return result.outcome


def minimize_candidates(
    abstraction: Abstraction,
    trace: Trace,
    candidates: Sequence[str],
    limits: Optional[Limits] = None,
    incremental: bool = True,
) -> RefinementResult:
    """Phase 2: the greedy add-until-unsatisfiable / try-remove loop.

    With ``incremental`` every probe runs on the one pooled session over
    the property's COI circuit, the candidate set as its active set, and
    the previous probe's witness answers what it can; otherwise each
    probe extracts its candidate model and solves it with a fresh
    solver (the reference path)."""
    with obs.span(
        "refine.phase2", candidates=len(candidates)
    ) as span:
        result = _minimize(
            abstraction, trace, candidates, limits, incremental
        )
        stats = result.stats
        span.set(
            probes=stats.atpg_calls + stats.answered,
            solved=stats.atpg_calls,
            answered=stats.answered,
            kept=len(result.registers),
        )
        return result


def _minimize(
    abstraction: Abstraction,
    trace: Trace,
    candidates: Sequence[str],
    limits: Optional[Limits],
    incremental: bool,
) -> RefinementResult:
    stats = RefinementStats(candidates=len(candidates), minimized=True)
    coi = (
        coi_circuit(abstraction.original, abstraction.prop.signals())
        if incremental
        else None
    )
    shared = coi is not None and abstraction.kept_registers.union(
        candidates
    ).issubset(coi.registers)
    witness = Witness(coi) if shared else None

    def probe(registers: List[str]) -> AtpgOutcome:
        if not shared:
            stats.atpg_calls += 1
            model = abstraction.with_registers(registers)
            return trace_satisfiable_on(model, trace, limits, incremental)
        answered = witness.answered
        outcome = trace_satisfiable_on(
            coi, trace, limits, incremental,
            active=abstraction.kept_registers.union(registers),
            witness=witness,
        )
        if witness.answered > answered:
            stats.answered += 1
        else:
            stats.atpg_calls += 1
        return outcome

    added: List[str] = []
    unsatisfiable = False
    runtime = limits.budget if limits is not None else None
    for register in candidates:
        if runtime is not None:
            runtime.checkpoint(engine="refine")
        added.append(register)
        outcome = probe(added)
        if outcome is AtpgOutcome.UNSATISFIABLE:
            unsatisfiable = True
            break
        if outcome is AtpgOutcome.ABORTED:
            # Paper: without a definitive answer, keep every candidate.
            stats.selected = len(candidates)
            return RefinementResult(list(candidates), stats)
    if not unsatisfiable:
        stats.selected = len(added)
        return RefinementResult(added, stats)
    # Removal pass over all but the last-added register.
    kept = list(added)
    for register in added[:-1]:
        if runtime is not None:
            runtime.checkpoint(engine="refine")
        tentative = [r for r in kept if r != register]
        outcome = probe(tentative)
        if outcome is AtpgOutcome.UNSATISFIABLE:
            kept = tentative  # still invalid without it: drop for good
    stats.selected = len(kept)
    return RefinementResult(kept, stats)


def refine_from_trace(
    abstraction: Abstraction,
    trace: Trace,
    limits: Optional[Limits] = None,
    minimize: bool = True,
    fallback_count: int = 8,
    incremental: bool = True,
) -> RefinementResult:
    """The full Step 4: phase-1 candidates, then phase-2 minimization."""
    phase1 = crucial_register_candidates(
        abstraction,
        trace,
        fallback_count=fallback_count,
        runtime=limits.budget if limits is not None else None,
    )
    if not phase1.registers:
        return phase1
    if not minimize:
        phase1.stats.selected = len(phase1.registers)
        return phase1
    result = minimize_candidates(
        abstraction, trace, phase1.registers, limits=limits,
        incremental=incremental,
    )
    result.stats.conflicts_found = phase1.stats.conflicts_found
    result.stats.candidates = phase1.stats.candidates
    return result
