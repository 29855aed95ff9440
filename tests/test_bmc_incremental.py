"""Incremental SAT core: push/pop groups, session pooling, and the
incremental-vs-monolithic BMC equivalence suite.

The equivalence suite is the soundness gate for the single-instance
formulation: over a set of fuzz-generated (circuit, property) instances,
the incremental BMC loop (one pooled solver, ``bad@k`` via assumptions,
frame-append unrolling) must return the *identical* verdict -- and, for
FALSE verdicts, the identical lexicographically-canonical counterexample
trace -- as the monolithic per-depth re-encode.  Both verdict polarities
must occur across the seed set, so a bug that biases one mode toward
TRUE or FALSE cannot hide.
"""

from __future__ import annotations

import pytest

from repro.atpg.encode import SolverSession
from repro.fuzz.gen import GenConfig, generate_instance
from repro.kernel.perf import PERF
from repro.kernel.scache import clear_caches, solver_session
from repro.mc.bmc import BmcOutcome, bmc
from repro.runtime.abort import ConflictsOut
from repro.runtime.budget import Budget, Limits
from repro.sat.cnf import CNF
from repro.sat.solver import SatStatus, Solver

from tests.conftest import saturating_counter


# ---------------------------------------------------------------------
# push/pop activation groups
# ---------------------------------------------------------------------


def test_push_pop_retracts_group_clauses():
    solver = Solver()
    a = solver.new_var()
    b = solver.new_var()
    solver.add_clause([a, b])
    solver.push()
    solver.add_clause([-a])
    solver.add_clause([-b])
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()
    # The contradictory group is gone; both orderings are models again.
    assert solver.solve(assumptions=[a]).status is SatStatus.SAT
    assert solver.solve(assumptions=[b]).status is SatStatus.SAT


def test_push_pop_nested_lifo():
    solver = Solver()
    a = solver.new_var()
    solver.push()
    solver.add_clause([a])
    solver.push()
    solver.add_clause([-a])
    assert solver.open_groups == 2
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()  # retract [-a]
    assert solver.solve().status is SatStatus.SAT
    assert solver.solve().model[a] is True
    solver.pop()  # retract [a]
    assert solver.open_groups == 0
    assert solver.solve(assumptions=[-a]).status is SatStatus.SAT


def test_pop_without_push_raises():
    solver = Solver()
    with pytest.raises(RuntimeError):
        solver.pop()


def test_group_clauses_do_not_pollute_after_pop():
    """A learned clause derived inside a group must not survive the pop
    in a form that constrains later queries."""
    solver = Solver()
    xs = [solver.new_var() for _ in range(6)]
    # Pigeonhole-flavored group: force some learning, then retract.
    solver.push()
    solver.add_clause([xs[0], xs[1]])
    solver.add_clause([xs[0], -xs[1]])
    solver.add_clause([-xs[0], xs[2]])
    solver.add_clause([-xs[2], xs[3]])
    solver.add_clause([-xs[3]])
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()
    for lit in (xs[0], -xs[0], xs[3], -xs[3]):
        assert solver.solve(assumptions=[lit]).status is SatStatus.SAT


def test_attach_absorb_watermark():
    cnf = CNF()
    a = cnf.new_var()
    cnf.add_clause([a])
    solver = Solver()
    solver.attach(cnf)
    assert solver.absorb() == 1
    b = cnf.new_var()
    cnf.add_clause([-a, b])
    # solve() auto-absorbs the suffix.
    result = solver.solve()
    assert result.status is SatStatus.SAT
    assert result.model[a] is True and result.model[b] is True
    assert solver.absorb() == 0  # nothing left to sync


def test_budget_abort_mid_solve_inside_group_recovers():
    """A runtime ConflictsOut raised mid-solve with an open group must
    leave the solver reusable: backtracked to level 0, group intact,
    and correct on the retry."""
    solver = Solver()
    pigeons, holes = 6, 5
    p = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    solver.push()
    # Pigeonhole principle inside the group: UNSAT, and the proof needs
    # far more than one conflict.
    for i in range(pigeons):
        solver.add_clause(p[i])
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                solver.add_clause([-p[i][j], -p[k][j]])
    budget = Budget(max_conflicts=1)
    with pytest.raises(ConflictsOut):
        solver.solve(budget=budget)
    assert solver.open_groups == 1
    # Unbudgeted retry completes the refutation on the same instance...
    assert solver.solve().status is SatStatus.UNSAT
    solver.pop()
    assert solver.open_groups == 0
    # ...and after the pop the constraints are gone.
    assert solver.solve().status is SatStatus.SAT
    assert solver.solve(assumptions=[p[0][0], p[1][0]]).status is SatStatus.SAT


# ---------------------------------------------------------------------
# Session pooling
# ---------------------------------------------------------------------


def test_solver_session_pool_hit_and_extend():
    clear_caches()
    circuit, _ = saturating_counter()
    first = solver_session(circuit, cycles=2)
    assert isinstance(first, SolverSession)
    again = solver_session(circuit, cycles=5)
    assert again is first
    assert first.cycles == 5
    # Different signature -> different session.
    free = solver_session(circuit, cycles=2, use_initial_state=False)
    assert free is not first
    clear_caches()
    assert solver_session(circuit, cycles=2) is not first


def test_solver_session_perf_counters():
    clear_caches()
    PERF.reset()
    circuit, prop = saturating_counter()
    bmc(circuit, prop, Limits(max_depth=6), induction=False)
    counters = PERF.snapshot()["counters"]
    assert counters.get("unroll.frames_appended", 0) >= 5
    assert counters.get("sat.clauses_reused", 0) > 0
    hits_before = PERF.cache_hits.get("solver_pool", 0)
    bmc(circuit, prop, Limits(max_depth=6), induction=False)
    assert PERF.cache_hits.get("solver_pool", 0) > hits_before


# ---------------------------------------------------------------------
# Incremental vs monolithic equivalence
# ---------------------------------------------------------------------

SEEDS = list(range(25))
_RESULTS_CACHE = {}


def _bmc_pair(seed: int):
    """Run both modes on one fuzz instance with canonical traces."""
    if seed in _RESULTS_CACHE:
        return _RESULTS_CACHE[seed]
    inst = generate_instance(seed, GenConfig())
    limits = Limits(max_depth=10)
    kwargs = dict(
        induction=True,
        unique_states=True,
        canonical_trace=True,
    )
    clear_caches()
    incr = bmc(inst.circuit, inst.prop, limits, incremental=True, **kwargs)
    clear_caches()
    mono = bmc(inst.circuit, inst.prop, limits, incremental=False, **kwargs)
    _RESULTS_CACHE[seed] = (incr, mono)
    return incr, mono


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_matches_monolithic(seed):
    incr, mono = _bmc_pair(seed)
    assert incr.outcome == mono.outcome
    assert incr.depth == mono.depth
    assert incr.induction_depth == mono.induction_depth
    if incr.outcome is BmcOutcome.FALSE:
        # Canonical (lexicographically minimized) traces are identical
        # regardless of solver history.
        assert incr.trace == mono.trace


def test_equivalence_covers_both_polarities():
    outcomes = {_bmc_pair(seed)[0].outcome for seed in SEEDS}
    assert BmcOutcome.FALSE in outcomes
    assert BmcOutcome.TRUE in outcomes


def test_pooled_induction_session_reuse_is_sound():
    """Re-running BMC on the same circuit reuses the pooled induction
    session whose permanent ~bad/uniqueness constraints are deeper than
    the early depths; verdicts must still match a cold run."""
    circuit, prop = saturating_counter()
    clear_caches()
    warm1 = bmc(circuit, prop, Limits(max_depth=12), unique_states=True)
    warm2 = bmc(circuit, prop, Limits(max_depth=12), unique_states=True)
    clear_caches()
    cold = bmc(circuit, prop, Limits(max_depth=12), unique_states=True,
               incremental=False)
    assert warm1.outcome == cold.outcome
    assert warm2.outcome == cold.outcome
    assert warm1.depth == cold.depth
