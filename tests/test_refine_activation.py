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
  deliberately dropped guard clause it must catch, and its one-settle
  kernel valuation against a cycle-by-cycle interpreted simulation;
- the previous probe's witness, which answers a probe only when it
  meets all of that probe's constraints;
- budget aborts mid-solve, after which the shared session must answer
  as a fresh one would.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice, permutations

import pytest

import repro.core.refine as refine_mod
from repro.atpg.encode import Unroller
from repro.atpg.engine import (
    AtpgOutcome,
    TraceValuation,
    _check_trace,
    sequential_atpg,
)
from repro.core.abstraction import Abstraction
from repro.core.coverage import CoverageAnalyzer, CoverageConfig
from repro.core.refine import (
    Witness,
    crucial_register_candidates,
    minimize_candidates,
    refine_from_trace,
    trace_satisfiable_on,
)
from repro.core.rfn import RFN, RfnConfig
from repro.designs import table1_workloads, table2_workloads
from repro.engine import Verdict
from repro.fuzz.gen import GenConfig, generate_instance
from repro.kernel.scache import clear_caches, coi_circuit
from repro.mc.bmc import BmcOutcome, bmc
from repro.netlist import Circuit
from repro.netlist.transform import (
    permute_gates,
    permute_registers,
    reorder_inputs,
)
from repro.runtime.abort import EngineAbort
from repro.runtime.budget import Budget, Limits
from repro.sim.simulator import Simulator
from repro.trace import Trace
from tests.conftest import buggy_counter

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
        self.witnessed = 0  # answers the previous probe's witness gave
        real_probe = refine_mod.trace_satisfiable_on
        real_minimize = refine_mod.minimize_candidates

        def probe(model, trace, limits=None, incremental=True, active=None,
                  *, witness=None):
            answered = witness.answered if witness is not None else 0
            answer = real_probe(
                model, trace, limits, incremental, active, witness=witness
            )
            if witness is not None and witness.answered > answered:
                self.witnessed += 1
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
            abstraction.model, inst.prop, Limits(max_depth=8), incremental=False
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
    assert 0 < audit.witnessed < answers[AtpgOutcome.TRACE_FOUND]
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
    assert 0 < audit.witnessed < answers[AtpgOutcome.TRACE_FOUND]
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


def stepped_check(circuit, trace, cube_map, active=None, initial=None):
    """The cross-check as a cycle-by-cycle interpreted simulation (free
    registers driven from the trace): the first failure, or None."""
    sim = Simulator(circuit)
    free = [n for n in circuit.registers if active is not None
            and n not in active]
    state = dict(trace.states[0])
    for name, expected in (initial or {}).items():
        if (active is None or name in active) and state[name] != expected:
            return (f"trace/initial-state mismatch for {name!r}: trace "
                    f"{state[name]}, initial value {expected}")
    for cycle in range(trace.length):
        decoded = trace.states[cycle]
        state.update({name: decoded[name] for name in free})
        values, next_state = sim.step(state, trace.inputs[cycle])
        for name, expected in decoded.items():
            if values[name] != expected:
                return (f"trace/simulation mismatch for state {name!r} at "
                        f"cycle {cycle}: trace {expected}, simulated "
                        f"{values[name]}")
        for name, expected in cube_map.get(cycle, {}).items():
            if name in values and values[name] != expected:
                return (f"cube/simulation mismatch for {name!r} at cycle "
                        f"{cycle}: cube {expected}, simulated {values[name]}")
        state = next_state
    return None


def flipped(trace, *bits):
    """A copy of ``trace`` with the (cycle, register) state bits flipped."""
    states = [dict(cube) for cube in trace.states]
    for cycle, name in bits:
        states[cycle][name] ^= 1
    return Trace(states=states, inputs=[dict(c) for c in trace.inputs],
                 circuit_name=trace.circuit_name)


def test_cross_check_catches_each_corruption():
    """A 4-bit counter's run 0, 1, ..., 5, corrupted three ways; each
    failure is named at its earliest cycle."""
    c, _ = buggy_counter()
    clear_caches()
    result = sequential_atpg(c, 6)
    trace = result.trace
    assert [sum(s[f"cnt[{i}]"] << i for i in range(4))
            for s in trace.states] == [0, 1, 2, 3, 4, 5]
    initial = {f"cnt[{i}]": 0 for i in range(4)}
    _check_trace(c, trace, {}, False, initial=initial)
    # 1. An active register off its initial value.
    with pytest.raises(AssertionError, match=(
        r"^trace/initial-state mismatch for 'cnt\[0\]': trace 1, "
        r"initial value 0$"
    )):
        _check_trace(c, flipped(trace, (0, "cnt[0]")), {}, False,
                     initial=initial)
    # ... unless it is free in the queried model.
    _check_trace(c, flipped(trace, (0, "cnt[0]")), {}, False,
                 active={"cnt[2]", "cnt[3]"}, initial=initial)
    # 2. A state its register's next-state function does not produce.
    state_bad = flipped(trace, (4, "cnt[2]"), (3, "cnt[1]"))
    with pytest.raises(AssertionError, match=(
        r"^trace/simulation mismatch for state 'cnt\[1\]' at cycle 3: "
        r"trace 0, simulated 1$"
    )):
        _check_trace(c, state_bad, {}, False)
    # 3. A cube the run does not meet.
    cubes = {1: {"cnt[0]": 1}, 2: {"cnt[1]": 0}, 4: {"cnt[2]": 0}}
    with pytest.raises(AssertionError, match=(
        r"^cube/simulation mismatch for 'cnt\[1\]' at cycle 2: cube 0, "
        r"simulated 1$"
    )):
        _check_trace(c, trace, cubes, False)
    # The earliest cycle wins across kinds; within a cycle the state is
    # checked before the cube.
    with pytest.raises(AssertionError, match="cube/.* at cycle 2"):
        _check_trace(c, state_bad, cubes, False)
    with pytest.raises(AssertionError, match="state 'cnt.0.' at cycle 2"):
        _check_trace(c, flipped(trace, (2, "cnt[0]")), cubes, False)
    # Signals outside the circuit: skipped on request, an error otherwise.
    _check_trace(c, trace, {0: {"elsewhere": 1}}, True)
    with pytest.raises(KeyError):
        _check_trace(c, trace, {0: {"elsewhere": 1}}, False)


def test_one_settle_check_matches_stepped_simulation():
    """On fuzz instances, random corruptions of ATPG traces under random
    active sets and cubes fail (or pass) the one-settle check exactly as
    a cycle-by-cycle interpreted simulation does, naming the same
    earliest failure."""
    rng = random.Random(19)
    checked = Counter()
    for seed in SEEDS:
        c = generate_instance(seed, GenConfig()).circuit
        clear_caches()
        result = sequential_atpg(c, 5)
        if not result.found:
            continue
        registers = list(c.registers)
        signals = sorted(Simulator(c).evaluate({}, {}))
        initial = Unroller.initial_values(c)
        for _ in range(12):
            trace = flipped(result.trace, *{
                (rng.randrange(5), rng.choice(registers))
                for _ in range(rng.randrange(3))
            })
            active = set(rng.sample(registers, rng.randrange(
                len(registers) + 1)))
            frames = Simulator(c).run(trace.inputs, trace.states[0])
            cubes = {}
            for cycle in rng.sample(range(5), 2):
                name = rng.choice(signals)
                cubes[cycle] = {name: frames[cycle][name] ^ (
                    rng.random() < 0.3)}
            got = TraceValuation(c, trace).mismatch(cubes, active, initial)
            assert got == stepped_check(c, trace, cubes, active, initial)
            checked[got.split(" ")[0] if got else "ok"] += 1
    assert set(checked) == {"ok", "trace/initial-state",
                            "trace/simulation", "cube/simulation"}


# ---------------------------------------------------------------------
# Witness answers
# ---------------------------------------------------------------------


def witness_on(circuit, states):
    """A witness holding the given run of ``circuit``."""
    witness = Witness(circuit)
    witness.valuation = TraceValuation(circuit, Trace(
        states=states, inputs=[{} for _ in states],
        circuit_name=circuit.name,
    ))
    return witness


def test_witness_answers_only_when_every_condition_holds():
    c = toggle_and_stuck()
    both = {"q", "p"}
    good = witness_on(c, [{"q": 0, "p": 0}, {"q": 1, "p": 0}])
    assert good.satisfies({0: {"q": 0}, 1: {"q": 1, "p": 0}}, both)
    # Only (1) fails: q starts at 1, then toggles correctly.
    w = witness_on(c, [{"q": 1, "p": 0}, {"q": 0, "p": 0}])
    assert not w.satisfies({}, both)
    assert w.satisfies({}, {"p"})  # q inactive: free
    # Only (2) fails: q starts at 0, then does not toggle.
    w = witness_on(c, [{"q": 0, "p": 0}, {"q": 0, "p": 0}])
    assert not w.satisfies({}, both)
    assert w.satisfies({}, {"p"})
    # Only (3) fails: the run misses one cube literal.
    assert not good.satisfies({1: {"q": 0}}, both)
    assert not good.satisfies({0: {"q": 0}, 1: {"p": 1}}, both)
    # Nothing to answer from before the first satisfiable solve.
    assert not Witness(c).satisfies({}, both)


def test_witness_answers_a_probe_its_trace_meets(
    error_flag_step, monkeypatch
):
    """The first probe solves and hands its trace over; a probe the
    trace meets is answered without a solve, one it does not (the
    unsatisfiable all-candidates probe) still solves."""
    abstraction, trace, candidates = error_flag_step
    clear_caches()
    coi = coi_circuit(abstraction.original, abstraction.prop.signals())
    solves = []
    real = refine_mod.sequential_atpg

    def counted(*args, **kwargs):
        solves.append(kwargs["active"])
        return real(*args, **kwargs)

    monkeypatch.setattr(refine_mod, "sequential_atpg", counted)
    witness = Witness(coi)
    kept = abstraction.kept_registers

    def probe(active):
        return trace_satisfiable_on(coi, trace, active=active,
                                    witness=witness)

    assert probe(kept) is AtpgOutcome.TRACE_FOUND
    assert (len(solves), witness.answered) == (1, 0)
    assert probe(kept) is AtpgOutcome.TRACE_FOUND
    assert (len(solves), witness.answered) == (1, 1)
    assert probe(kept.union(candidates)) is AtpgOutcome.UNSATISFIABLE
    assert (len(solves), witness.answered) == (2, 1)


def test_iu1_answers_probes_from_witnesses(traced):
    """Table 2's IU1 at seed 0 (the benchmark's permutation, two CEGAR
    iterations): the ``refine.phase2`` spans show probes answered from
    a witness, and every minimisation's first probe solved."""
    from repro.obs.report import render_report

    row = next(w for w in table2_workloads() if w.name == "IU1")
    circuit = permute_registers(reorder_inputs(
        permute_gates(row.circuit, seed=0), seed=0), seed=0)
    clear_caches()
    CoverageAnalyzer(circuit, row.signals, CoverageConfig(
        max_iterations=2, max_seconds=None)).run()
    records = traced.records()
    phase2 = [r["attrs"] for r in records if r.get("type") == "span"
              and r["name"] == "refine.phase2"]
    assert phase2
    for attrs in phase2:
        assert attrs["probes"] == attrs["solved"] + attrs["answered"]
        assert attrs["solved"] >= 1
        assert attrs["kept"] <= attrs["candidates"]
    assert sum(attrs["answered"] for attrs in phase2) >= 1
    assert "  refine.phase2: " in render_report(records)


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


def shared_probe(step, registers, limits=None):
    abstraction, trace, _ = step
    coi = coi_circuit(abstraction.original, abstraction.prop.signals())
    return trace_satisfiable_on(
        coi, trace, limits,
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
        error_flag_step, [], Limits(max_conflicts=0)
    ) is AtpgOutcome.ABORTED
    assert_answers_as_fresh(error_flag_step)


def test_deadline_abort_leaves_session_reusable(error_flag_step):
    clear_caches()
    expired = Budget(max_seconds=0.0)
    with pytest.raises(EngineAbort):
        shared_probe(error_flag_step, [], Limits(budget=expired))
    assert_answers_as_fresh(error_flag_step)


def test_aborted_minimisation_keeps_every_candidate(error_flag_step):
    abstraction, trace, candidates = error_flag_step
    clear_caches()
    result = minimize_candidates(
        abstraction, trace, candidates, limits=Limits(max_conflicts=0)
    )
    assert result.registers == candidates
    # Unaborted, the same minimisation keeps fewer.
    unaborted = minimize_candidates(abstraction, trace, candidates)
    assert len(unaborted.registers) < len(candidates)
