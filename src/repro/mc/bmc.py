"""Bounded model checking and k-induction on the SAT/ATPG engine.

A complementary pure-SAT verification path ("ATPG can also be used for
functional verification", reference [3] of the paper): iteratively deepen
a bounded search for the bad states, and at each depth also attempt the
k-induction step -- if no ``k``-step path of non-bad states can end in a
bad state from an arbitrary start, the property holds.

With ``unique_states`` the induction step adds simple-path constraints
(pairwise state disequality), which makes k-induction complete on finite
systems at the cost of quadratically many constraints.

Incremental formulation (default).  Instead of building a fresh CNF and
solver at every depth, both loops run on persistent
:class:`~repro.atpg.encode.SolverSession` objects pooled by
:func:`repro.kernel.scache.solver_session`:

- the *bounded* loop keeps one unrolling that only ever grows, asserts
  ``bad@k`` through assumptions, and inherits every learned clause from
  shallower depths -- and, because the pool key is the plain
  initial-state signature, from sequential ATPG runs and earlier CEGAR
  iterations over the same abstraction;
- the *induction* loop keeps a separate free-start session (tagged with
  the property, since its ``~bad`` clauses are permanent) where each new
  depth appends only the newly needed ``~bad@k-1`` clause and, under
  ``unique_states``, only the disequality pairs involving the new frame
  -- O(depth) new constraints per step instead of re-encoding the
  O(depth^2) pair set.

Because the induction session's ``~bad`` and uniqueness constraints are
permanent and monotone in depth, a pooled session revived by a later,
shallower run would answer those depths spuriously (``bad@k`` clashes
with an already-asserted ``~bad@k``).  The loop therefore skips the
induction attempt below the session's high-water mark -- sound, since a
skipped induction attempt can only delay TRUE, never flip a verdict --
and resumes once the depth catches up.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.atpg.encode import SolverSession, Unroller
from repro.core.property import UnreachabilityProperty
from repro.kernel.scache import coi_circuit, solver_session
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.sat.solver import SatStatus, Solver
from repro.trace import Trace


class BmcOutcome(enum.Enum):
    TRUE = "true"  # proved by k-induction
    FALSE = "false"  # counterexample found
    UNKNOWN = "unknown"  # depth or budget exhausted


@dataclass
class BmcResult:
    outcome: BmcOutcome
    depth: int
    trace: Optional[Trace] = None
    induction_depth: Optional[int] = None
    seconds: float = 0.0


def _bad_literals(unroller: Unroller, prop, cycle: int) -> List[int]:
    return [
        unroller.lit(name, cycle, value)
        for name, value in prop.target.items()
    ]


def _minimize_model(
    solve_fn,
    unroller: Unroller,
    circuit: Circuit,
    depth: int,
    base_assumptions: List[int],
    fallback_model: Mapping[int, bool],
) -> Mapping[int, bool]:
    """Lexicographically minimize a satisfying model.

    Greedily pins every *free* variable of the unrolling -- frame-0
    registers without a declared init, then the inputs of each cycle, in
    declaration order -- preferring 0.  Since the circuit is
    deterministic, this pins the entire model, so incremental and
    monolithic solving (whose raw CDCL models differ) decode to the
    *same* counterexample trace.  ``solve_fn(assumptions)`` must return a
    :class:`SatResult`; a non-SAT/UNSAT status (budget or deadline ran
    out mid-minimization) falls back to the last model seen.
    """
    queries: List[int] = []
    for name, reg in circuit.registers.items():
        if reg.init is None:
            queries.append(unroller.lit(name, 0))
    for cycle in range(depth + 1):
        for name in circuit.inputs:
            queries.append(unroller.lit(name, cycle))
    fixed = list(base_assumptions)
    model = fallback_model
    for lit in queries:
        result = solve_fn(fixed + [-lit])
        if result.status is SatStatus.SAT:
            fixed.append(-lit)
            model = result.model
        elif result.status is SatStatus.UNSAT:
            fixed.append(lit)
        else:
            return model
    return model


def _decode_trace(
    unroller: Unroller,
    circuit: Circuit,
    model: Mapping[int, bool],
    depth: int,
) -> Trace:
    trace = Trace(circuit_name=circuit.name)
    for cycle in range(depth + 1):
        trace.append_cycle(
            unroller.decode_state(model, cycle),
            unroller.decode_inputs(model, cycle),
        )
    return trace


# ----------------------------------------------------------------------
# Monolithic (per-depth re-encode) steps -- the --no-incremental path
# ----------------------------------------------------------------------


def _bounded_step(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    depth: int,
    max_conflicts: Optional[int],
    deadline: Optional[float] = None,
    budget=None,
    canonical_trace: bool = False,
) -> Optional[Trace]:
    """SAT query: init & T^depth & bad@depth.  Returns a trace or None."""
    unroller = Unroller(circuit, depth + 1, use_initial_state=True)
    for lit in _bad_literals(unroller, prop, depth):
        unroller.cnf.add_unit(lit)
    solver = Solver(unroller.cnf)

    def solve_fn(assumptions):
        return solver.solve(
            assumptions=assumptions,
            max_conflicts=max_conflicts,
            deadline=deadline,
            budget=budget,
        )

    result = solve_fn([])
    if result.status is not SatStatus.SAT:
        return None
    model = result.model
    if canonical_trace:
        model = _minimize_model(
            solve_fn, unroller, circuit, depth, [], model
        )
    return _decode_trace(unroller, circuit, model, depth)


def _induction_step(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    depth: int,
    max_conflicts: Optional[int],
    unique_states: bool,
    deadline: Optional[float] = None,
    budget=None,
) -> Optional[bool]:
    """SAT query: ~bad@0..depth-1 & T^depth & bad@depth with a free start.

    Returns True when UNSAT (induction holds), False when SAT, None on
    budget exhaustion.
    """
    unroller = Unroller(circuit, depth + 1, use_initial_state=False)
    cnf = unroller.cnf
    for cycle in range(depth):
        cnf.add_clause(
            [-lit for lit in _bad_literals(unroller, prop, cycle)]
        )
    for lit in _bad_literals(unroller, prop, depth):
        cnf.add_unit(lit)
    if unique_states and depth >= 1:
        registers = list(circuit.registers)
        for i in range(depth + 1):
            for j in range(i + 1, depth + 1):
                _add_disequality(cnf, unroller, registers, i, j)
    result = Solver(cnf).solve(
        max_conflicts=max_conflicts, deadline=deadline, budget=budget
    )
    if result.status is SatStatus.UNSAT:
        return True
    if result.status is SatStatus.SAT:
        return False
    return None


def _add_disequality(
    cnf, unroller: Unroller, registers: List[str], i: int, j: int
) -> None:
    """state@i != state@j (at least one register bit differs)."""
    difference = []
    for reg in registers:
        neq = cnf.new_var()
        cnf.add_xor2(
            neq, abs(unroller.lit(reg, i)), abs(unroller.lit(reg, j))
        )
        difference.append(neq)
    cnf.add_clause(difference)


# ----------------------------------------------------------------------
# Incremental steps -- one persistent session per loop
# ----------------------------------------------------------------------


def _bounded_step_incremental(
    session: SolverSession,
    prop: UnreachabilityProperty,
    depth: int,
    max_conflicts: Optional[int],
    deadline: Optional[float] = None,
    budget=None,
    canonical_trace: bool = False,
) -> Optional[Trace]:
    """``bad@depth`` asserted through assumptions on the shared session;
    the unrolling and every learned clause persist to the next depth."""
    session.ensure_depth(depth + 1)
    unroller = session.unroller
    assumptions = _bad_literals(unroller, prop, depth)

    def solve_fn(extra):
        return session.solve(
            extra,
            max_conflicts=max_conflicts,
            deadline=deadline,
            budget=budget,
        )

    result = solve_fn(assumptions)
    if result.status is not SatStatus.SAT:
        return None
    model = result.model
    if canonical_trace:
        model = _minimize_model(
            solve_fn, unroller, session.circuit, depth, assumptions, model
        )
    return _decode_trace(unroller, session.circuit, model, depth)


def _induction_step_incremental(
    session: SolverSession,
    prop: UnreachabilityProperty,
    depth: int,
    max_conflicts: Optional[int],
    unique_states: bool,
    deadline: Optional[float] = None,
    budget=None,
) -> Optional[bool]:
    """The induction obligation on the persistent free-start session.

    ``~bad`` clauses and uniqueness pairs are permanent, appended
    monotonically: frames ``0..meta["nobad"]-1`` already carry the
    ``~bad`` clause, frames up to ``meta["uniq"]`` already carry their
    full disequality pair set, so each depth adds O(depth) constraints
    (only the pairs involving new frames) instead of re-encoding the
    whole O(depth^2) set.  Depths below the high-water mark are skipped
    by the caller (:func:`bmc`) -- a pooled session revived at a
    shallower depth would otherwise contradict its own permanent
    clauses.
    """
    session.ensure_depth(depth + 1)
    unroller = session.unroller
    cnf = session.cnf
    nobad = session.meta.get("nobad", 0)
    for cycle in range(nobad, depth):
        cnf.add_clause(
            [-lit for lit in _bad_literals(unroller, prop, cycle)]
        )
    session.meta["nobad"] = max(nobad, depth)
    if unique_states and depth >= 1:
        registers = list(session.circuit.registers)
        uniq = session.meta.get("uniq", 0)
        for frame in range(uniq + 1, depth + 1):
            for i in range(frame):
                _add_disequality(cnf, unroller, registers, i, frame)
        session.meta["uniq"] = max(uniq, depth)
    result = session.solve(
        _bad_literals(unroller, prop, depth),
        max_conflicts=max_conflicts,
        deadline=deadline,
        budget=budget,
    )
    if result.status is SatStatus.UNSAT:
        return True
    if result.status is SatStatus.SAT:
        return False
    return None


def _induction_tag(prop: UnreachabilityProperty, unique_states: bool):
    return (
        "bmc-ind",
        tuple(sorted(prop.target.items())),
        bool(unique_states),
    )


def bmc(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    max_depth: int = 32,
    max_conflicts: Optional[int] = 200_000,
    induction: bool = True,
    unique_states: bool = False,
    use_coi: bool = True,
    max_seconds: Optional[float] = None,
    budget=None,
    incremental: bool = True,
    canonical_trace: bool = False,
) -> BmcResult:
    """Iteratively-deepened bounded model checking with k-induction.

    At each depth ``k``: look for a length-``k`` counterexample; if none
    and ``induction`` is on, try to close the proof with the ``k``-step
    induction obligation.

    ``max_seconds`` bounds the whole run (each SAT call inherits the
    remaining wall clock; an exceeded deadline yields UNKNOWN).
    ``budget`` optionally attaches a :class:`repro.runtime.Budget`,
    whose exhaustion raises a structured ``EngineAbort`` instead.

    ``incremental`` (default) runs both loops on pooled persistent
    solver sessions (see module docstring); ``incremental=False`` is the
    legacy per-depth re-encode, kept as the ``--no-incremental`` escape
    hatch.  ``canonical_trace`` lexicographically minimizes the
    counterexample so both modes return the identical trace (used by the
    equivalence tests; costs one SAT call per free variable).
    """
    with obs.span(
        "mc.bmc",
        max_depth=max_depth,
        induction=induction,
        incremental=incremental,
    ) as phase:
        result = _bmc_run(
            circuit,
            prop,
            max_depth=max_depth,
            max_conflicts=max_conflicts,
            induction=induction,
            unique_states=unique_states,
            use_coi=use_coi,
            max_seconds=max_seconds,
            budget=budget,
            incremental=incremental,
            canonical_trace=canonical_trace,
        )
        phase.set(result=result.outcome.value, depth=result.depth)
        if result.induction_depth is not None:
            phase.set(induction_depth=result.induction_depth)
        return result


def _bmc_run(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    max_depth: int = 32,
    max_conflicts: Optional[int] = 200_000,
    induction: bool = True,
    unique_states: bool = False,
    use_coi: bool = True,
    max_seconds: Optional[float] = None,
    budget=None,
    incremental: bool = True,
    canonical_trace: bool = False,
) -> BmcResult:
    start = time.monotonic()
    deadline = (
        None if max_seconds is None else start + max_seconds
    )
    prop.validate_against(circuit)
    model = circuit
    if use_coi:
        model = coi_circuit(circuit, prop.signals())
    bounded_session: Optional[SolverSession] = None
    induction_session: Optional[SolverSession] = None
    if incremental:
        bounded_session = solver_session(
            model, cycles=1, use_initial_state=True
        )
    for depth in range(max_depth + 1):
        if deadline is not None and time.monotonic() >= deadline:
            break
        if budget is not None:
            budget.checkpoint(engine="bmc")
        if incremental:
            trace = _bounded_step_incremental(
                bounded_session, prop, depth, max_conflicts,
                deadline, budget, canonical_trace,
            )
        else:
            trace = _bounded_step(
                model, prop, depth, max_conflicts, deadline, budget,
                canonical_trace,
            )
        if trace is not None:
            return BmcResult(
                BmcOutcome.FALSE,
                depth,
                trace=trace,
                seconds=time.monotonic() - start,
            )
        if induction and depth >= 1:
            if incremental:
                if induction_session is None:
                    induction_session = solver_session(
                        model,
                        cycles=depth + 1,
                        use_initial_state=False,
                        tag=_induction_tag(prop, unique_states),
                    )
                # A pooled session already carries permanent ~bad /
                # uniqueness constraints up to its high-water mark;
                # querying below it would be spuriously UNSAT.
                watermark = max(
                    induction_session.meta.get("nobad", 0),
                    induction_session.meta.get("uniq", 0),
                )
                if depth < watermark:
                    holds = None
                else:
                    holds = _induction_step_incremental(
                        induction_session, prop, depth, max_conflicts,
                        unique_states, deadline, budget,
                    )
            else:
                holds = _induction_step(
                    model, prop, depth, max_conflicts, unique_states,
                    deadline, budget,
                )
            if holds:
                return BmcResult(
                    BmcOutcome.TRUE,
                    depth,
                    induction_depth=depth,
                    seconds=time.monotonic() - start,
                )
    return BmcResult(
        BmcOutcome.UNKNOWN, max_depth, seconds=time.monotonic() - start
    )
