"""One SAT session per CEGAR run: activation-literal probes.

Refinement probes and guided search query one pooled, guarded session
over the property's cone-of-influence circuit, picking the abstract
model by its active register set.  These tests hold that path to the
reference path -- extract the candidate model, solve it with a fresh
solver -- probe by probe:

- the equivalence suite over the 25 ``fuzz.gen`` seeds and the
  refinement steps of Table 1, in both polarities, across the add and
  removal passes of the greedy minimisation;
- the simulator cross-check on partially active sessions, including a
  deliberately dropped guard clause it must catch;
- budget aborts mid-solve, after which the shared session must answer
  as a fresh one would.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice, permutations

import pytest

import repro.core.refine as refine_mod
from repro.atpg.encode import Unroller
from repro.atpg.engine import (
    AtpgBudget,
    AtpgOutcome,
    _check_trace,
    sequential_atpg,
)
from repro.core.abstraction import Abstraction
from repro.core.refine import (
    crucial_register_candidates,
    minimize_candidates,
    refine_from_trace,
    trace_satisfiable_on,
)
from repro.core.rfn import RFN, RfnConfig
from repro.designs import table1_workloads
from repro.engine import Verdict
from repro.fuzz.gen import GenConfig, generate_instance
from repro.kernel.scache import clear_caches, coi_circuit
from repro.mc.bmc import BmcOutcome, bmc
from repro.netlist import Circuit
from repro.runtime.abort import EngineAbort
from repro.runtime.budget import Budget
from repro.trace import Trace

SEEDS = list(range(25))


def reference_probe(abstraction, trace, registers):
    """The reference answer: the candidate model extracted, solved with
    a fresh solver."""
    model = abstraction.with_registers(registers)
    cubes = {
        cycle: {
            name: value
            for name, value in trace.cube_at(cycle).items()
            if model.is_defined(name)
        }
        for cycle in range(trace.length)
    }
    return sequential_atpg(
        model, trace.length, cubes, skip_missing=True, incremental=False
    ).outcome


class ProbeAudit:
    """Wraps ``refine.trace_satisfiable_on`` so that every shared-session
    probe of ``minimize_candidates`` is checked against the reference
    path; records the answer sequence of each minimisation."""

    def __init__(self, monkeypatch) -> None:
        self.abstraction = None
        self.runs = []
        real_probe = refine_mod.trace_satisfiable_on
        real_minimize = refine_mod.minimize_candidates

        def probe(model, trace, budget=None, incremental=True, active=None):
            answer = real_probe(model, trace, budget, incremental, active)
            if not incremental:
                return answer  # the reference path itself
            assert active is not None, "probe left the shared session"
            assert answer is reference_probe(
                self.abstraction, trace, active
            ), f"active set {sorted(active)}"
            self.runs[-1].append(answer)
            return answer

        def minimize(abstraction, *args, **kwargs):
            self.abstraction = abstraction
            self.runs.append([])
            return real_minimize(abstraction, *args, **kwargs)

        monkeypatch.setattr(refine_mod, "trace_satisfiable_on", probe)
        monkeypatch.setattr(refine_mod, "minimize_candidates", minimize)

    def answers(self) -> Counter:
        return Counter(answer for run in self.runs for answer in run)

    def removal_passes(self) -> int:
        """Minimisations that went on past their first UNSAT answer."""
        return sum(
            1
            for run in self.runs
            if AtpgOutcome.UNSATISFIABLE in run[:-1]
        )


def fuzz_steps(seed, max_steps=4):
    """(abstraction, abstract trace) pairs of a small CEGAR run on one
    fuzz instance, advanced by the reference refinement."""
    inst = generate_instance(seed, GenConfig())
    abstraction = Abstraction.initial(inst.circuit, inst.prop)
    for _ in range(max_steps):
        result = bmc(
            abstraction.model, inst.prop, max_depth=8, incremental=False
        )
        if result.outcome is not BmcOutcome.FALSE or result.trace.length < 2:
            return
        yield abstraction, result.trace
        refinement = refine_from_trace(
            abstraction, result.trace, incremental=False
        )
        if not abstraction.refine(refinement.registers):
            return


# ---------------------------------------------------------------------
# Equivalence: shared session with an active set == extracted model
# ---------------------------------------------------------------------


def test_fuzz_probes_match_reference(monkeypatch):
    audit = ProbeAudit(monkeypatch)
    steps = 0
    for seed in SEEDS:
        for abstraction, trace in fuzz_steps(seed):
            # Phase 1's candidates, then the candidate universe in every
            # order (up to a cap): orders that add a useless register
            # before a crucial one drive the greedy loop into its
            # removal pass.
            universe = sorted(abstraction.remaining_coi_registers())
            orders = [
                crucial_register_candidates(abstraction, trace).registers
            ] + [
                list(order)
                for order in islice(permutations(universe), 24)
            ]
            for candidates in orders:
                if not candidates:
                    continue
                steps += 1
                shared = refine_mod.minimize_candidates(
                    abstraction, trace, candidates
                )
                reference = minimize_candidates(
                    abstraction, trace, candidates, incremental=False
                )
                assert shared.registers == reference.registers, seed
    answers = audit.answers()
    assert steps >= 10
    assert answers[AtpgOutcome.TRACE_FOUND] > 0
    assert answers[AtpgOutcome.UNSATISFIABLE] > 0
    assert answers[AtpgOutcome.ABORTED] == 0
    assert audit.removal_passes() > 0


def test_table1_probes_match_reference(monkeypatch):
    audit = ProbeAudit(monkeypatch)
    for workload in table1_workloads():
        clear_caches()
        result = RFN(workload.circuit, workload.prop, RfnConfig()).run()
        assert result.status is (
            Verdict.VERIFIED if workload.expected else Verdict.FALSIFIED
        )
    answers = audit.answers()
    assert answers[AtpgOutcome.TRACE_FOUND] > 0
    assert answers[AtpgOutcome.UNSATISFIABLE] > 0
    assert answers[AtpgOutcome.ABORTED] == 0
    assert audit.removal_passes() > 0


def test_table1_run_shares_one_session_per_property(monkeypatch):
    """Every initial-state query of a run -- all probes, every guided
    search -- lands on one session over the COI circuit."""
    import repro.atpg.engine as engine_mod

    real = engine_mod.solver_session
    initialized = set()

    def record(*args, **kwargs):
        session = real(*args, **kwargs)
        if session.initialized:
            initialized.add(id(session))
        return session

    monkeypatch.setattr(engine_mod, "solver_session", record)
    for workload in table1_workloads():
        clear_caches()
        initialized.clear()
        RFN(workload.circuit, workload.prop, RfnConfig()).run()
        assert len(initialized) == 1, workload.name


# ---------------------------------------------------------------------
# The simulator cross-check on partially active sessions
# ---------------------------------------------------------------------


def toggle_and_stuck():
    """``q`` toggles from 0; ``p`` holds 0 forever."""
    c = Circuit("ts")
    q = c.add_register("qd", init=0, output="q")
    c.g_not(q, output="qd")
    c.add_register("p", init=0, output="p")
    c.validate()
    return c


def test_inactive_register_is_a_pseudo_input():
    c = toggle_and_stuck()
    clear_caches()
    # p is stuck at 0, unless inactive: then it is free every cycle.
    cubes = {1: {"p": 1}}
    assert sequential_atpg(c, 2, cubes).outcome is AtpgOutcome.UNSATISFIABLE
    result = sequential_atpg(c, 2, cubes, active={"q"})
    assert result.outcome is AtpgOutcome.TRACE_FOUND
    assert result.trace.states[1]["p"] == 1
    assert result.trace.states[1]["q"] == 1
    # The active register still starts at its initial value.
    assert sequential_atpg(
        c, 1, {0: {"q": 1}}, active={"q"}
    ).outcome is AtpgOutcome.UNSATISFIABLE
    assert sequential_atpg(
        c, 1, {0: {"q": 1}}, active={"p"}
    ).outcome is AtpgOutcome.TRACE_FOUND
    with pytest.raises(KeyError):
        sequential_atpg(c, 1, active={"nope"})
    with pytest.raises(ValueError):
        sequential_atpg(c, 1, active={"q"}, incremental=False)


def test_dropped_guard_clause_is_caught(monkeypatch):
    c = toggle_and_stuck()
    clear_caches()
    q_next = "q@1"

    def leaky(self, act, out, data):
        # Drop ``act & data -> out`` for q at frame 1 only.
        if self.cnf.name_of(out) == q_next:
            self.cnf.add_clause([-act, -out, data])
            return
        self.cnf.add_clause([-act, -out, data])
        self.cnf.add_clause([-act, out, -data])

    monkeypatch.setattr(Unroller, "_add_transition", leaky)
    # q@1 = not q@0 = 1 in truth; the leak lets the solver pick 0.
    with pytest.raises(AssertionError, match="mismatch"):
        sequential_atpg(c, 2, {1: {"q": 0}}, active={"q"})
    clear_caches()
    with pytest.raises(AssertionError, match="mismatch"):
        sequential_atpg(c, 2, {1: {"q": 0}})


def test_cross_check_holds_active_registers_to_initial_values():
    c = toggle_and_stuck()
    trace = Trace(
        states=[{"q": 1, "p": 0}], inputs=[{}], circuit_name=c.name
    )
    # p is inactive: its trace value drives the simulation.
    _check_trace(c, trace, {}, False, active={"p"}, initial={"q": 0})
    with pytest.raises(AssertionError, match="initial"):
        _check_trace(c, trace, {}, False, active={"q"}, initial={"q": 0})


# ---------------------------------------------------------------------
# Budget aborts leave the shared session reusable
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def error_flag_step():
    """The first refinement step of Table 1's ``error_flag`` row: its
    abstraction, abstract trace and phase-1 candidates."""
    workload = next(
        w for w in table1_workloads() if w.name == "error_flag"
    )
    captured = []
    real = refine_mod.minimize_candidates

    def capture(abstraction, trace, candidates, **kwargs):
        if not captured:
            captured.append(
                (
                    Abstraction(
                        abstraction.original,
                        abstraction.prop,
                        set(abstraction.kept_registers),
                    ),
                    trace,
                    list(candidates),
                )
            )
        return real(abstraction, trace, candidates, **kwargs)

    refine_mod.minimize_candidates = capture
    try:
        clear_caches()
        RFN(workload.circuit, workload.prop, RfnConfig()).run()
    finally:
        refine_mod.minimize_candidates = real
    return captured[0]


def shared_probe(step, registers, budget=None):
    abstraction, trace, _ = step
    coi = coi_circuit(abstraction.original, abstraction.prop.signals())
    return trace_satisfiable_on(
        coi, trace, budget,
        active=abstraction.kept_registers.union(registers),
    )


def assert_answers_as_fresh(step):
    """Both polarities on the (possibly aborted-into) shared session
    match the reference path."""
    abstraction, trace, candidates = step
    for registers in ([], candidates):
        assert shared_probe(step, registers) is reference_probe(
            abstraction, trace, registers
        )


def test_step_has_both_polarities(error_flag_step):
    abstraction, trace, candidates = error_flag_step
    # The abstract trace is satisfiable on its own model (a search the
    # budgets below cut short); all candidates together refute it.
    assert reference_probe(
        abstraction, trace, []
    ) is AtpgOutcome.TRACE_FOUND
    assert reference_probe(
        abstraction, trace, candidates
    ) is AtpgOutcome.UNSATISFIABLE


def test_conflict_budget_abort_leaves_session_reusable(error_flag_step):
    clear_caches()
    assert shared_probe(
        error_flag_step, [], AtpgBudget(max_conflicts=0)
    ) is AtpgOutcome.ABORTED
    assert_answers_as_fresh(error_flag_step)


def test_deadline_abort_leaves_session_reusable(error_flag_step):
    clear_caches()
    expired = Budget(max_seconds=0.0)
    with pytest.raises(EngineAbort):
        shared_probe(error_flag_step, [], AtpgBudget(runtime=expired))
    assert_answers_as_fresh(error_flag_step)


def test_aborted_minimisation_keeps_every_candidate(error_flag_step):
    abstraction, trace, candidates = error_flag_step
    clear_caches()
    result = minimize_candidates(
        abstraction, trace, candidates, budget=AtpgBudget(max_conflicts=0)
    )
    assert result.registers == candidates
    # Unaborted, the same minimisation keeps fewer.
    unaborted = minimize_candidates(abstraction, trace, candidates)
    assert len(unaborted.registers) < len(candidates)
