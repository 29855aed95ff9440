"""Combinational and sequential ATPG engines.

Both engines answer the paper's three-way query (trace found / cubes
unsatisfiable / resources exceeded) by encoding the time-frame-expanded
circuit into CNF and running the budgeted CDCL solver.  Sequential results
are cross-checked against the bit-parallel kernel before being returned
(every cycle of the trace settled in one sweep, one lane per cycle), so
an encoder bug can never masquerade as a verification result.

By default both engines run *incrementally*: the unrolling and solver
come from the :func:`repro.kernel.scache.solver_session` pool, target and
constraint cubes are asserted through assumptions rather than permanent
units, and learned clauses carry over between ATPG targets on the same
circuit -- and across the BMC and CEGAR callers that share the session
signature.  ``incremental=False`` restores the historical
fresh-solver-per-call behavior.

Sequential ATPG can also answer on an abstract model *inside* the given
circuit: ``active`` names the registers that keep their next-state
function, and the session's activation literals free the rest (see
:mod:`repro.atpg.encode`).  The cross-check then takes the inactive
registers from the decoded trace and holds the active ones to their
next-state functions and initial values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.atpg.encode import Unroller
from repro.kernel.bitsim import BitParallelSimulator, planes_value
from repro.kernel.perf import PERF
from repro.kernel.scache import solver_session
from repro.obs import tracer as obs
from repro.trace import Trace
from repro.netlist.circuit import Circuit
from repro.runtime.budget import Limits
from repro.sat.solver import SatStatus, Solver


class AtpgOutcome(enum.Enum):
    """The paper's three possible ATPG answers (Section 2)."""

    TRACE_FOUND = "trace_found"
    UNSATISFIABLE = "unsatisfiable"
    ABORTED = "aborted"


#: Conflict cap of an ATPG call made without ``limits``.
DEFAULT_MAX_CONFLICTS = 200_000


def atpg_limits(limits: Optional[Limits] = None) -> Limits:
    """The envelope an ATPG call runs under: ``limits`` as given (an
    unset cap is unlimited), or the default conflict cap when the caller
    gives none.  Every call also carries the module-wide propagation cap
    (:data:`repro.runtime.budget.MAX_PROPAGATIONS`); exceeding a cap
    answers ``ABORTED``, while an attached ``budget`` -- the only wall
    clock -- charges the shared run budget and *raises* a structured
    ``EngineAbort`` -- the supervisor's exception-based path."""
    if limits is None:
        return Limits(max_conflicts=DEFAULT_MAX_CONFLICTS)
    return limits


@dataclass
class AtpgResult:
    outcome: AtpgOutcome
    trace: Optional[Trace] = None
    assignment: Optional[Dict[str, int]] = None
    conflicts: int = 0
    decisions: int = 0
    #: The cross-checked trace's kernel valuation (sequential ATPG with
    #: ``verify``), reusable to test the trace against further queries.
    valuation: Optional[TraceValuation] = None

    @property
    def found(self) -> bool:
        return self.outcome is AtpgOutcome.TRACE_FOUND


CubeMap = Mapping[int, Mapping[str, int]]


def _normalize_cubes(
    cubes: Union[CubeMap, Sequence[Mapping[str, int]], None],
    cycles: int,
) -> Dict[int, Dict[str, int]]:
    if cubes is None:
        return {}
    if isinstance(cubes, Mapping):
        normalized = {int(c): dict(cube) for c, cube in cubes.items()}
    else:
        normalized = {c: dict(cube) for c, cube in enumerate(cubes)}
    for cycle in normalized:
        if not 0 <= cycle < cycles:
            raise ValueError(
                f"cube at cycle {cycle} outside unrolling of {cycles} cycles"
            )
    return normalized


def sequential_atpg(
    circuit: Circuit,
    cycles: int,
    cubes: Union[CubeMap, Sequence[Mapping[str, int]], None] = None,
    *,
    use_initial_state: bool = True,
    initial_state: Optional[Mapping[str, int]] = None,
    limits: Optional[Limits] = None,
    skip_missing: bool = False,
    verify: bool = True,
    incremental: bool = True,
    active: Optional[Iterable[str]] = None,
) -> AtpgResult:
    """Search for a ``cycles``-cycle trace satisfying per-cycle cubes.

    ``cubes`` maps cycle index (0-based) to a cube over any signals of the
    circuit (state, input or internal).  With ``skip_missing`` enabled,
    cube entries naming signals absent from the circuit are ignored --
    used when replaying an abstract-model trace on a differently-sized
    subcircuit.  ``active`` restricts the transition relation to those
    registers (the others are free in every cycle); ``None`` keeps all.
    Only the incremental path's guarded session can answer for a subset.
    """
    with obs.span(
        "atpg.sequential", cycles=cycles, incremental=incremental
    ) as phase:
        result = _sequential_atpg(
            circuit,
            cycles,
            cubes,
            use_initial_state=use_initial_state,
            initial_state=initial_state,
            limits=limits,
            skip_missing=skip_missing,
            verify=verify,
            incremental=incremental,
            active=active,
        )
        phase.set(
            result=result.outcome.value,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
        PERF.gauge("atpg.conflicts", result.conflicts)
        return result


def _sequential_atpg(
    circuit: Circuit,
    cycles: int,
    cubes: Union[CubeMap, Sequence[Mapping[str, int]], None] = None,
    *,
    use_initial_state: bool = True,
    initial_state: Optional[Mapping[str, int]] = None,
    limits: Optional[Limits] = None,
    skip_missing: bool = False,
    verify: bool = True,
    incremental: bool = True,
    active: Optional[Iterable[str]] = None,
) -> AtpgResult:
    assumptions: List[int] = []
    if active is not None:
        if not incremental:
            raise ValueError("an active register set needs a solver session")
        active = frozenset(active)
    if incremental:
        session = solver_session(
            circuit,
            cycles,
            use_initial_state=use_initial_state,
            initial_state=initial_state,
        )
        unroller = session.unroller
    else:
        session = None
        unroller = Unroller(
            circuit,
            cycles,
            use_initial_state=use_initial_state,
            initial_state=initial_state,
        )
    cube_map = _normalize_cubes(cubes, cycles)
    for cycle, cube in cube_map.items():
        for name, value in cube.items():
            if not unroller.has_signal(name, cycle):
                if skip_missing:
                    continue
                raise KeyError(
                    f"cube signal {name!r} not in circuit "
                    f"{circuit.name!r}"
                )
            lit = unroller.lit(name, cycle, value)
            if session is not None:
                assumptions.append(lit)
            else:
                unroller.cnf.add_unit(lit)
    limits = atpg_limits(limits)
    if session is not None:
        result = session.solve(
            assumptions, active=active, **limits.solve_kwargs()
        )
    else:
        result = Solver(unroller.cnf).solve(**limits.solve_kwargs())
    if result.status is SatStatus.UNSAT:
        return AtpgResult(
            AtpgOutcome.UNSATISFIABLE,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    if result.status is SatStatus.UNKNOWN:
        return AtpgResult(
            AtpgOutcome.ABORTED,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    trace = Trace(circuit_name=circuit.name)
    for cycle in range(cycles):
        trace.append_cycle(
            unroller.decode_state(result.model, cycle),
            unroller.decode_inputs(result.model, cycle),
        )
    valuation = None
    if verify:
        initial = Unroller.initial_values(
            circuit, use_initial_state, initial_state
        )
        valuation = _check_trace(
            circuit, trace, cube_map, skip_missing, active, initial
        )
    return AtpgResult(
        AtpgOutcome.TRACE_FOUND,
        trace=trace,
        conflicts=result.conflicts,
        decisions=result.decisions,
        valuation=valuation,
    )


def combinational_atpg(
    circuit: Circuit,
    target: Mapping[str, int],
    constraints: Iterable[Mapping[str, int]] = (),
    *,
    limits: Optional[Limits] = None,
    incremental: bool = True,
) -> AtpgResult:
    """One-time-frame ATPG with a free state: justify ``target`` plus all
    ``constraints`` cubes over a single combinational frame.

    Register outputs act as pseudo primary inputs (no initial-state
    constraint, no transitions).  On success the full frame valuation is
    returned in ``assignment`` so callers can read off any signal -- the
    hybrid engine uses this to extend a min-cut cube to a no-cut cube
    (Section 2.2).
    """
    with obs.span("atpg.combinational", incremental=incremental) as phase:
        result = _combinational_atpg(
            circuit,
            target,
            constraints,
            limits=limits,
            incremental=incremental,
        )
        phase.set(
            result=result.outcome.value,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
        PERF.gauge("atpg.conflicts", result.conflicts)
        return result


def _combinational_atpg(
    circuit: Circuit,
    target: Mapping[str, int],
    constraints: Iterable[Mapping[str, int]] = (),
    *,
    limits: Optional[Limits] = None,
    incremental: bool = True,
) -> AtpgResult:
    limits = atpg_limits(limits)
    if incremental:
        session = solver_session(circuit, 1, use_initial_state=False)
        unroller = session.unroller
        assumptions = [
            unroller.lit(name, 0, value)
            for cube in list(constraints) + [dict(target)]
            for name, value in cube.items()
        ]
        result = session.solve(assumptions, **limits.solve_kwargs())
    else:
        unroller = Unroller(circuit, 1, use_initial_state=False)
        for cube in list(constraints) + [dict(target)]:
            for name, value in cube.items():
                unroller.cnf.add_unit(unroller.lit(name, 0, value))
        result = Solver(unroller.cnf).solve(**limits.solve_kwargs())
    if result.status is SatStatus.UNSAT:
        return AtpgResult(
            AtpgOutcome.UNSATISFIABLE,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    if result.status is SatStatus.UNKNOWN:
        return AtpgResult(
            AtpgOutcome.ABORTED,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )
    return AtpgResult(
        AtpgOutcome.TRACE_FOUND,
        assignment=unroller.decode_frame(result.model, 0),
        conflicts=result.conflicts,
        decisions=result.decisions,
    )


class TraceValuation:
    """A trace settled in one kernel sweep: lane ``t`` of every signal
    is its value at cycle ``t``, with each register -- active or free --
    at the trace's value.  The trace names every register at every
    cycle (decoded traces do)."""

    def __init__(self, circuit: Circuit, trace: Trace) -> None:
        sim = BitParallelSimulator(circuit)
        self.trace = trace
        self.frame = sim.evaluate_lanes(trace.states, trace.inputs)
        cc = sim.compiled
        self._index = cc.index
        self._data = {
            cc.names[r]: d
            for r, d in zip(cc.register_indices, cc.register_data)
        }

    def mismatch(
        self,
        cube_map: Mapping[int, Mapping[str, int]],
        active: Optional[Iterable[str]] = None,
        initial: Optional[Mapping[str, int]] = None,
        skip_missing: bool = False,
    ) -> Optional[str]:
        """Why the trace is no run of the model ``active`` selects
        (``None`` -- all registers) from ``initial`` that meets
        ``cube_map``: the earliest failure, described, or ``None`` when
        it is one.  Per cycle the register states are checked before the
        cube, as a step-by-step simulation would meet them."""
        states = self.trace.states
        for name, expected in (initial or {}).items():
            if (active is None or name in active) and (
                states[0][name] != expected
            ):
                return (
                    f"trace/initial-state mismatch for {name!r}: trace "
                    f"{states[0][name]}, initial value {expected}"
                )
        f0 = self.frame.f0
        f1 = self.frame.f1
        lanes = self.frame.lanes
        index = self._index
        data = self._data
        # Lane t + 1 of each active register against lane t of its data
        # input: every transition of the trace in two plane compares.
        low = (1 << (lanes - 1)) - 1
        wrong: Dict[str, int] = {}
        for name in data if active is None else active:
            r = index[name]
            d = data[name]
            bad = (((f0[r] >> 1) ^ f0[d]) | ((f1[r] >> 1) ^ f1[d])) & low
            if bad:
                wrong[name] = bad
        state_cycle = min(
            ((bad & -bad).bit_length() for bad in wrong.values()),
            default=lanes,
        )
        for cycle in range(state_cycle):
            for name, expected in cube_map.get(cycle, {}).items():
                i = index.get(name)
                if i is None:
                    if skip_missing:
                        continue
                    raise KeyError(
                        f"cube signal {name!r} not in the trace's circuit"
                    )
                actual = planes_value((f0[i], f1[i]), cycle)
                if actual != expected:
                    return (
                        f"cube/simulation mismatch for {name!r} at cycle "
                        f"{cycle}: cube {expected}, simulated {actual}"
                    )
        if state_cycle == lanes:
            return None
        bit = 1 << (state_cycle - 1)
        name, expected = next(
            (name, value)
            for name, value in states[state_cycle].items()
            if wrong.get(name, 0) & bit
        )
        d = data[name]
        actual = planes_value((f0[d], f1[d]), state_cycle - 1)
        return (
            f"trace/simulation mismatch for state {name!r} at cycle "
            f"{state_cycle}: trace {expected}, simulated {actual}"
        )


def _check_trace(
    circuit: Circuit,
    trace: Trace,
    cube_map: Dict[int, Dict[str, int]],
    skip_missing: bool,
    active: Optional[Iterable[str]] = None,
    initial: Optional[Mapping[str, int]] = None,
) -> TraceValuation:
    """Settle the extracted trace on the kernel and assert it is a run of
    the queried model meeting every cube; returns the valuation.

    Registers outside ``active`` (``None`` -- all registers are active)
    are pseudo-inputs of the queried model and take their trace values;
    active registers must match their ``initial`` values at cycle 0 and
    their next-state functions after that.

    This is an internal consistency check between the CNF encoding and the
    simulator; a failure indicates a bug, not an analysis result.
    """
    valuation = TraceValuation(circuit, trace)
    problem = valuation.mismatch(cube_map, active, initial, skip_missing)
    if problem is not None:
        raise AssertionError(problem)
    return valuation
