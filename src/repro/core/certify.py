"""Independent certification of verification results.

RFN's VERIFIED answer rests on the BDD engine: the forward fixpoint of the
abstract model avoided the bad states.  This module re-checks that answer
with the *other* formal engine (SAT/ATPG), closing the loop between the
paper's two formal technologies:

- the abstract model's reached set is an **inductive invariant**: it
  contains the initial states, is closed under the transition relation,
  and excludes the bad states;
- each obligation is discharged as an unsatisfiability query on the
  abstract model's CNF encoding -- one engine's proof becomes the other
  engine's theorem.

A certified FALSIFIED answer is simpler: the concrete error trace is
replayed from its initial state and must visit a bad state.  Replay runs
on the bit-parallel kernel simulator by default (``simulator="kernel"``);
the interpreted levelized simulator remains available as an independent
second replay path (``simulator="interpreted"``), and the two are pinned
to identical certificates by the test suite.

This is both a user-facing audit feature and a ruthless internal
consistency check (any soundness bug in the BDD engine, the encoder or
the image computation shows up as a failed certificate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.atpg.encode import Unroller
from repro.bdd import Function
from repro.core.property import UnreachabilityProperty
from repro.kernel.bitsim import BitParallelSimulator, pack_lanes, pack_lanes_masked
from repro.kernel.scache import solver_session
from repro.trace import Trace
from repro.mc.encode import SymbolicEncoding
from repro.netlist.circuit import Circuit
from repro.sat.solver import SatStatus, Solver
from repro.sim.simulator import Simulator


class CertificateStatus(enum.Enum):
    CERTIFIED = "certified"
    FAILED = "failed"
    INCOMPLETE = "incomplete"  # a SAT query hit its budget


@dataclass
class Certificate:
    status: CertificateStatus
    obligations: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is CertificateStatus.CERTIFIED


def _invariant_clauses(
    invariant: Function,
    encoding: SymbolicEncoding,
    unroller: Unroller,
    cycle: int,
    aux_prefix: str,
):
    """CNF clauses asserting the BDD ``invariant`` over the state variables
    of one unrolled frame; returns the literal representing it.

    Standard Tseitin translation of a BDD: one auxiliary CNF variable per
    BDD node, three clauses per node (if-then-else semantics).
    """
    bdd = encoding.bdd
    cnf = unroller.cnf
    node = invariant.node
    if node == bdd.FALSE:
        fresh = cnf.new_var(f"{aux_prefix}$false")
        cnf.add_unit(-fresh)
        return fresh
    if node == bdd.TRUE:
        fresh = cnf.new_var(f"{aux_prefix}$true")
        cnf.add_unit(fresh)
        return fresh

    node_lit: Dict[int, int] = {}

    def lit_for(n: int) -> int:
        if n == bdd.TRUE or n == bdd.FALSE:
            raise AssertionError("terminals handled inline")
        return node_lit[n]

    order = []
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n <= 1 or n in seen:
            continue
        seen.add(n)
        order.append(n)
        stack.append(bdd._low[n])
        stack.append(bdd._high[n])
    for n in order:
        node_lit[n] = cnf.new_var(f"{aux_prefix}$n{n}")
    for n in order:
        var_name = bdd._top_var_name(n)
        sel = unroller.lit(var_name, cycle)
        low = bdd._low[n]
        high = bdd._high[n]
        out = node_lit[n]

        def branch_lit(child: int):
            if child == bdd.TRUE:
                return None, True
            if child == bdd.FALSE:
                return None, False
            return node_lit[child], None

        low_lit, low_const = branch_lit(low)
        high_lit, high_const = branch_lit(high)
        # out <-> (sel ? high : low)
        if high_const is None:
            cnf.add_clause([-sel, -out, high_lit])
            cnf.add_clause([-sel, out, -high_lit])
        elif high_const:
            cnf.add_clause([-sel, out])
        else:
            cnf.add_clause([-sel, -out])
        if low_const is None:
            cnf.add_clause([sel, -out, low_lit])
            cnf.add_clause([sel, out, -low_lit])
        elif low_const:
            cnf.add_clause([sel, out])
        else:
            cnf.add_clause([sel, -out])
    return node_lit[node]


def certify_invariant(
    model: Circuit,
    prop: UnreachabilityProperty,
    invariant: Function,
    encoding: SymbolicEncoding,
    max_conflicts: Optional[int] = 1_000_000,
    incremental: bool = True,
) -> Certificate:
    """SAT-check the three inductive-invariant obligations on ``model``.

    1. *Initiation*: no initial state falsifies the invariant.
    2. *Consecution*: no transition leaves the invariant.
    3. *Safety*: no invariant state is a bad state.

    With ``incremental`` (default), obligations run on the pooled solver
    sessions for ``model`` -- sharing learned clauses with the BMC and
    ATPG queries CEGAR already issued on the same abstraction -- and the
    per-obligation invariant encodings are scoped inside
    ``push()``/``pop()`` activation groups so they vanish after the
    query instead of polluting the shared clause database.
    """
    obligations: Dict[str, str] = {}
    status = CertificateStatus.CERTIFIED

    def record(name: str, result) -> None:
        nonlocal status
        if result.status is SatStatus.UNSAT:
            obligations[name] = "unsat (holds)"
        elif result.status is SatStatus.SAT:
            obligations[name] = "SAT: counterexample to the obligation"
            status = CertificateStatus.FAILED
        else:
            obligations[name] = "budget exceeded"
            if status is CertificateStatus.CERTIFIED:
                status = CertificateStatus.INCOMPLETE

    if incremental:
        # One initial-state session (shared with BMC's bounded loop) and
        # one free-start two-frame session (shared with combinational
        # ATPG; frame 1 is simply unconstrained for 1-frame queries).
        init_session = solver_session(model, 1, use_initial_state=True)
        free_session = solver_session(model, 2, use_initial_state=False)

        def run_scoped(name: str, session, build_lits) -> None:
            session.solver.push()
            try:
                lits = build_lits(session)
                result = session.solve(lits, max_conflicts=max_conflicts)
            finally:
                session.solver.pop()
            record(name, result)

        run_scoped(
            "initiation",
            init_session,
            lambda s: [
                -_invariant_clauses(
                    invariant, encoding, s.unroller, 0,
                    s.fresh_prefix("inv0"),
                )
            ],
        )

        def consecution_lits(s):
            inv0 = _invariant_clauses(
                invariant, encoding, s.unroller, 0, s.fresh_prefix("inv0")
            )
            inv1 = _invariant_clauses(
                invariant, encoding, s.unroller, 1, s.fresh_prefix("inv1")
            )
            return [inv0, -inv1]

        run_scoped("consecution", free_session, consecution_lits)

        def safety_lits(s):
            inv0 = _invariant_clauses(
                invariant, encoding, s.unroller, 0, s.fresh_prefix("inv0")
            )
            bad = [
                s.unroller.lit(name, 0, value)
                for name, value in prop.target.items()
            ]
            return [inv0] + bad

        run_scoped("safety", free_session, safety_lits)
        return Certificate(status=status, obligations=obligations)

    def run_query(name: str, build) -> None:
        solver, query_lits = build()
        result = solver.solve(
            assumptions=query_lits, max_conflicts=max_conflicts
        )
        record(name, result)

    # 1. Initiation: init & ~Inv(0) unsat.
    def build_initiation():
        unroller = Unroller(model, 1, use_initial_state=True)
        inv0 = _invariant_clauses(invariant, encoding, unroller, 0, "inv0")
        return Solver(unroller.cnf), [-inv0]

    run_query("initiation", build_initiation)

    # 2. Consecution: Inv(0) & T & ~Inv(1) unsat.
    def build_consecution():
        unroller = Unroller(model, 2, use_initial_state=False)
        inv0 = _invariant_clauses(invariant, encoding, unroller, 0, "inv0")
        inv1 = _invariant_clauses(invariant, encoding, unroller, 1, "inv1")
        return Solver(unroller.cnf), [inv0, -inv1]

    run_query("consecution", build_consecution)

    # 3. Safety: Inv(0) & bad(0) unsat.
    def build_safety():
        unroller = Unroller(model, 1, use_initial_state=False)
        inv0 = _invariant_clauses(invariant, encoding, unroller, 0, "inv0")
        bad = [
            unroller.lit(name, 0, value)
            for name, value in prop.target.items()
        ]
        return Solver(unroller.cnf), [inv0] + bad

    run_query("safety", build_safety)
    return Certificate(status=status, obligations=obligations)


def _replay_interpreted(circuit: Circuit, trace: Trace):
    """Per-cycle full valuations through the interpreted simulator."""
    sim = Simulator(circuit)
    state = dict(trace.states[0])
    for cycle in range(trace.length):
        values, state = sim.step(state, trace.inputs[cycle])
        yield values


def _replay_kernel(circuit: Circuit, trace: Trace):
    """Per-cycle full valuations through the bit-parallel kernel, one
    lane, with the trace-replay register-override convention preserved
    via the lane assignment masks."""
    sim = BitParallelSimulator(circuit)
    state = pack_lanes([dict(trace.states[0])])
    for cycle in range(trace.length):
        inputs, masks = pack_lanes_masked([trace.inputs[cycle]])
        frame = sim.evaluate(state, inputs, 1, input_masks=masks)
        state = sim.next_state(frame)
        yield frame.lane_valuation(0)


def certify_error_trace(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    trace: Trace,
    simulator: str = "kernel",
) -> Certificate:
    """Replay a concrete error trace on a simulator; it must visit a
    bad state and start in a legal initial state.

    ``simulator`` picks the replay engine: ``"kernel"`` (default, the
    bit-parallel compiled path) or ``"interpreted"`` (the levelized
    reference simulator).  Both are certified equivalent, so the choice
    only matters when auditing one of them against the other.
    """
    if simulator == "kernel":
        replay = _replay_kernel(circuit, trace)
    elif simulator == "interpreted":
        replay = _replay_interpreted(circuit, trace)
    else:
        raise ValueError(f"unknown replay simulator {simulator!r}")
    obligations: Dict[str, str] = {}
    state = dict(trace.states[0])
    legal_init = all(
        reg.init is None or state.get(name, reg.init) == reg.init
        for name, reg in circuit.registers.items()
    )
    obligations["initial-state"] = (
        "matches declared init values" if legal_init
        else "FAILS: trace starts outside the initial states"
    )
    visited_bad = False
    for cycle, values in enumerate(replay):
        if prop.holds_in_state(values):
            visited_bad = True
            obligations["bad-state"] = f"reached at cycle {cycle}"
            break
    if not visited_bad:
        obligations["bad-state"] = "FAILS: never reached"
    ok = legal_init and visited_bad
    return Certificate(
        status=(
            CertificateStatus.CERTIFIED if ok else CertificateStatus.FAILED
        ),
        obligations=obligations,
    )
