"""Unit tests for the unified runtime budget and its engine wiring.

Covers the :class:`repro.runtime.Budget` accounting itself, the abort
taxonomy, and the cooperative ``checkpoint()`` polling threaded into the
SAT solver, the BDD manager, reachability, ATPG and the bit-parallel
kernel -- ending with the full ``rfn_verify`` RESOURCE_OUT contract.
"""

import time
from dataclasses import fields

import pytest

from repro.atpg.engine import AtpgOutcome, atpg_limits, sequential_atpg
from repro.bdd.manager import BDDError, BDDNodeLimit
from repro.core import RfnConfig, rfn_verify
from repro.core.coverage import CoverageConfig
from repro.core.hybrid import HybridTraceEngine
from repro.engine import Verdict, registry
from repro.kernel.bitsim import BitParallelSimulator, pack_bits
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import ReachOutcome, forward_reach, reach_node_cap
from repro.runtime import (
    ABORT_BY_RESOURCE,
    Budget,
    ConflictsOut,
    DecisionsOut,
    EngineAbort,
    Limits,
    MemoryOut,
    NodesOut,
    Timeout,
)
from repro.sat.cnf import CNF
from repro.sat.solver import SatStatus, Solver

from tests.conftest import buggy_counter, toggle_design


def pigeonhole(pigeons: int, holes: int) -> CNF:
    """PHP(n, n-1): unsatisfiable and needs real search (~700 conflicts
    at n=7), so budget trips are exercised mid-solve."""
    cnf = CNF()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


class TestBudgetAccounting:
    def test_no_limits_never_expires(self):
        budget = Budget()
        assert budget.deadline is None
        assert budget.remaining_seconds() is None
        assert not budget.expired()
        budget.checkpoint()  # no-op

    def test_deadline_is_absolute_monotonic(self):
        budget = Budget(max_seconds=100.0)
        assert budget.deadline == pytest.approx(
            time.monotonic() + 100.0, abs=1.0
        )

    def test_zero_seconds_expires_immediately(self):
        budget = Budget(max_seconds=0.0)
        assert budget.expired()
        with pytest.raises(Timeout):
            budget.checkpoint(engine="test")

    def test_memory_watermark(self):
        # Any live Python process is over a 0.001 MiB watermark.
        budget = Budget(max_memory_mb=0.001)
        with pytest.raises(MemoryOut):
            budget.checkpoint()

    def test_charge_raises_conflicts_out(self):
        budget = Budget(max_conflicts=10)
        budget.charge(conflicts=5)
        with pytest.raises(ConflictsOut):
            budget.charge(conflicts=5)
        assert budget.conflicts == 10

    def test_charge_raises_decisions_out(self):
        budget = Budget(max_decisions=3)
        with pytest.raises(DecisionsOut):
            budget.charge(decisions=3)

    def test_charge_enforce_false_records_only(self):
        budget = Budget(max_conflicts=1)
        budget.charge(conflicts=100, enforce=False)
        assert budget.conflicts == 100

    def test_note_nodes(self):
        budget = Budget(max_bdd_nodes=1000)
        budget.note_nodes(1000)
        with pytest.raises(NodesOut):
            budget.note_nodes(1001)

    def test_hook_tags_engine(self):
        budget = Budget(max_seconds=0.0)
        hook = budget.hook("bdd")
        with pytest.raises(Timeout) as excinfo:
            hook()
        assert excinfo.value.engine == "bdd"

    def test_sub_budget_charges_parent(self):
        parent = Budget(max_conflicts=100, name="run")
        child = parent.sub("step", conflicts=50)
        child.charge(conflicts=30)
        assert parent.conflicts == 30
        assert child.remaining_conflicts() == 20

    def test_sub_deadline_never_exceeds_parent(self):
        parent = Budget(max_seconds=1.0)
        child = parent.sub("step", seconds=1000.0)
        assert child.deadline <= parent.deadline + 1e-6

    def test_spent_includes_prior_runs(self):
        budget = Budget(prior={"seconds": 2.0, "conflicts": 7})
        budget.charge(conflicts=3, enforce=False)
        spent = budget.spent()
        assert spent["conflicts"] == 10
        assert spent["seconds"] >= 2.0

    def test_json_roundtrip(self):
        budget = Budget(max_seconds=5.0, max_conflicts=100, name="run")
        budget.charge(conflicts=4, decisions=9, enforce=False)
        clone = Budget.from_json(budget.to_json())
        assert clone.name == "run"
        assert clone.max_conflicts == 100
        assert clone.spent()["conflicts"] == 4
        assert clone.spent()["decisions"] == 9


class TestAbortTaxonomy:
    def test_bdd_node_limit_is_both(self):
        error = BDDNodeLimit("blown")
        assert isinstance(error, BDDError)
        assert isinstance(error, NodesOut)
        assert isinstance(error, EngineAbort)
        assert error.resource == "nodes"

    def test_abort_by_resource_map(self):
        assert ABORT_BY_RESOURCE["time"] is Timeout
        assert ABORT_BY_RESOURCE["conflicts"] is ConflictsOut
        assert ABORT_BY_RESOURCE["nodes"] is NodesOut
        assert ABORT_BY_RESOURCE["memory"] is MemoryOut

    def test_describe_names_engine_and_resource(self):
        error = Timeout("deadline passed", engine="reach")
        assert "reach" in error.describe()
        assert "time" in error.describe()


class TestSolverBudget:
    def test_past_deadline_raises_timeout(self):
        solver = Solver(pigeonhole(7, 6))
        with pytest.raises(Timeout):
            solver.solve(budget=Budget(max_seconds=0.0))

    def test_runtime_conflicts_raise(self):
        budget = Budget(max_conflicts=200)
        solver = Solver(pigeonhole(7, 6))
        with pytest.raises(ConflictsOut):
            solver.solve(budget=budget)
        assert budget.conflicts >= 200

    def test_runtime_timeout_raises(self):
        solver = Solver(pigeonhole(7, 6))
        with pytest.raises(Timeout):
            solver.solve(budget=Budget(max_seconds=0.0))

    def test_definite_answer_charges_without_raising(self):
        # PHP(6,5) solves in ~150 conflicts: a definite answer must be
        # returned and charged even though the counter crossed no limit.
        budget = Budget()
        result = Solver(pigeonhole(6, 5)).solve(budget=budget)
        assert result.status is SatStatus.UNSAT
        assert budget.conflicts > 0

    def test_solver_reusable_after_abort(self):
        budget = Budget(max_conflicts=50)
        solver = Solver(pigeonhole(7, 6))
        with pytest.raises(ConflictsOut):
            solver.solve(budget=budget)
        # The abort unwound the trail; a fresh unbudgeted call finishes.
        result = solver.solve()
        assert result.status is SatStatus.UNSAT


class TestReachBudget:
    def _setup(self):
        circuit, prop = toggle_design()
        encoding = SymbolicEncoding(circuit)
        images = ImageComputer(encoding)
        target = encoding.state_cube(dict(prop.target))
        return encoding, images, target

    def test_time_budget_names_resource(self):
        encoding, images, target = self._setup()
        result = forward_reach(
            images,
            encoding.initial_states(),
            target=target,
            limits=Limits(budget=Budget(max_seconds=0.0)),
        )
        assert result.outcome is ReachOutcome.RESOURCE_OUT
        assert result.abort_resource == "time"

    def test_node_budget_names_resource(self):
        encoding, images, target = self._setup()
        result = forward_reach(
            images,
            encoding.initial_states(),
            target=target,
            limits=Limits(budget=Budget(max_bdd_nodes=1)),
        )
        assert result.outcome is ReachOutcome.RESOURCE_OUT
        assert result.abort_resource == "nodes"

    def test_hook_restored_after_run(self):
        encoding, images, target = self._setup()
        forward_reach(
            images,
            encoding.initial_states(),
            target=target,
            limits=Limits(budget=Budget(max_seconds=30.0)),
        )
        assert encoding.bdd.checkpoint_hook is None


class TestLimitsSolveKwargs:
    def test_solve_kwargs_carry_the_budget_as_the_only_clock(self):
        budget = Budget(max_seconds=5.0)
        kwargs = Limits(max_conflicts=7, budget=budget).solve_kwargs()
        assert kwargs == {
            "max_conflicts": 7,
            "max_propagations": 50_000_000,
            "budget": budget,
        }

    def test_solve_kwargs_takes_earlier_deadline(self):
        # The solver reads the budget's deadline, which is intersected
        # with every ancestor's: whichever is earlier ends the search.
        roomy = Budget(max_seconds=100.0)
        with pytest.raises(Timeout):
            Solver(pigeonhole(7, 6)).solve(
                **Limits(budget=roomy.sub("step", seconds=0.0)).solve_kwargs()
            )
        past = Budget(max_seconds=0.0)
        with pytest.raises(Timeout):
            Solver(pigeonhole(7, 6)).solve(
                **Limits(
                    budget=Budget(max_seconds=100.0, parent=past)
                ).solve_kwargs()
            )

    def test_conflict_cap_gives_unknown(self):
        # A counted cap from solve_kwargs() reaches the solver's restart
        # loop: a search-heavy instance stops as UNKNOWN, not raising.
        kwargs = Limits(max_conflicts=10).solve_kwargs()
        result = Solver(pigeonhole(7, 6)).solve(**kwargs)
        assert result.status is SatStatus.UNKNOWN

    def test_runtime_budget_raises_through_solve_kwargs(self):
        kwargs = Limits(budget=Budget(max_seconds=0.0)).solve_kwargs()
        with pytest.raises(Timeout):
            Solver(pigeonhole(7, 6)).solve(**kwargs)

    def test_atpg_normal_operation_unaffected(self):
        # With limits attached but not exhausted, sequential ATPG still
        # produces its definite answer (wd latches one cycle after the
        # counter hits the bad value, i.e. at cycle 10).
        circuit, prop = buggy_counter()
        result = sequential_atpg(
            circuit,
            11,
            {10: dict(prop.target)},
            limits=Limits(budget=Budget(max_seconds=30.0)),
            skip_missing=True,
        )
        assert result.outcome is AtpgOutcome.TRACE_FOUND


class TestLimitsScaled:
    CAPS = Limits(
        max_depth=7,
        max_iterations=3,
        max_conflicts=50_000,
        max_bdd_nodes=2_000_000,
        max_states=1000,
    )

    @staticmethod
    def reach_block(limits, scale):
        """Step 2's former retry scaling (iterations, nodes)."""
        return (
            None if limits.max_iterations is None
            else int(limits.max_iterations * scale),
            None if limits.max_bdd_nodes is None
            else int(limits.max_bdd_nodes * scale),
        )

    @staticmethod
    def conflict_block(limits, scale):
        """The hybrid and refinement steps' former retry scaling."""
        return (
            None if limits.max_conflicts is None
            else int(limits.max_conflicts * scale)
        )

    @pytest.mark.parametrize("factor", [1.0, 1.5, 2.0, 4.0, 2.0 ** 3])
    def test_matches_the_retry_blocks_it_replaced(self, factor):
        grown = self.CAPS.scaled(factor)
        assert (
            grown.max_iterations, grown.max_bdd_nodes
        ) == self.reach_block(self.CAPS, factor)
        assert grown.max_conflicts == self.conflict_block(self.CAPS, factor)

    def test_integer_caps_stay_int(self):
        grown = self.CAPS.scaled(1.5)
        for name in ("max_iterations", "max_conflicts", "max_bdd_nodes"):
            assert type(getattr(grown, name)) is int, name

    def test_unset_caps_stay_unset(self):
        grown = Limits().scaled(2.0)
        assert grown == Limits()

    def test_caps_no_retry_block_scaled_pass_through(self):
        budget = Budget(max_seconds=30.0)
        grown = Limits(max_depth=7, max_states=1000, budget=budget).scaled(4.0)
        assert grown.max_depth == 7
        assert grown.max_states == 1000
        assert grown.budget is budget
        assert budget.max_seconds == 30.0

    def test_returns_a_copy(self):
        limits = Limits(max_conflicts=10)
        assert limits.scaled(2.0) is not limits
        assert limits.max_conflicts == 10


def _reach_caps(limits):
    """The caps forward reachability runs under for ``limits``."""
    limits = limits if limits is not None else Limits()
    return Limits(
        max_iterations=limits.max_iterations,
        max_bdd_nodes=reach_node_cap(limits),
        budget=limits.budget,
    )


def _spied_limits(monkeypatch, module_name, function, run):
    """Run ``run`` with ``module.function`` wrapped; return the limits
    of its first call."""
    import importlib

    module = importlib.import_module(module_name)
    real = getattr(module, function)
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["limits"])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, function, spy)
    run()
    return seen[0]


def _registry_run(name):
    circuit, prop = toggle_design()
    return lambda: registry.get(name).run(
        circuit, prop, Limits(), contain=False
    )


#: Every place that used to build a default ATPG budget or reachability
#: limits: (site, the limits it hands its engine, how that engine
#: resolves them, the effective caps).
SITES = [
    ("forward_reach", lambda mp: None, _reach_caps,
     Limits(max_bdd_nodes=2_000_000)),
    ("approximate_check", lambda mp: None, _reach_caps,
     Limits(max_bdd_nodes=2_000_000)),
    ("RfnConfig.reach_limits", lambda mp: RfnConfig().reach_limits,
     _reach_caps, Limits(max_bdd_nodes=2_000_000)),
    ("CoverageConfig.reach_limits",
     lambda mp: CoverageConfig().reach_limits,
     _reach_caps, Limits(max_bdd_nodes=2_000_000)),
    ("bdd engine",
     lambda mp: _spied_limits(
         mp, "repro.engine.adapters", "forward_reach", _registry_run("bdd")
     ),
     _reach_caps, Limits(max_bdd_nodes=2_000_000)),
    ("sequential_atpg", lambda mp: None, atpg_limits,
     Limits(max_conflicts=200_000)),
    ("combinational_atpg", lambda mp: None, atpg_limits,
     Limits(max_conflicts=200_000)),
    ("guided_concrete_search", lambda mp: None, atpg_limits,
     Limits(max_conflicts=200_000)),
    ("HybridTraceEngine.atpg_limits",
     lambda mp: next(
         f.default for f in fields(HybridTraceEngine)
         if f.name == "atpg_limits"
     ),
     atpg_limits, Limits(max_conflicts=200_000)),
    ("RfnConfig.atpg_limits", lambda mp: RfnConfig().atpg_limits,
     atpg_limits, Limits(max_conflicts=200_000)),
    ("RfnConfig.refine_limits", lambda mp: RfnConfig().refine_limits,
     atpg_limits, Limits(max_conflicts=50_000)),
    ("CoverageConfig.atpg_limits",
     lambda mp: CoverageConfig().atpg_limits,
     atpg_limits, Limits(max_conflicts=100_000)),
    ("CoverageConfig.refine_limits",
     lambda mp: CoverageConfig().refine_limits,
     atpg_limits, Limits(max_conflicts=50_000)),
    ("atpg engine",
     lambda mp: _spied_limits(
         mp, "repro.engine.adapters", "sequential_atpg",
         _registry_run("atpg"),
     ),
     atpg_limits, Limits()),
]


@pytest.mark.parametrize(
    "site, given, resolve, caps", SITES, ids=[site[0] for site in SITES]
)
def test_default_caps_per_site(monkeypatch, site, given, resolve, caps):
    effective = resolve(given(monkeypatch))
    assert effective == caps
    assert effective.solve_kwargs() == {
        "max_conflicts": caps.max_conflicts,
        "max_propagations": 50_000_000,
        "budget": None,
    }


#: The caps each retried RFN step gets on its first retry with the
#: default config (``retry_scale`` 2.0).
RETRY_SITES = [
    ("reach", lambda c: c.reach_limits, Limits(max_bdd_nodes=4_000_000)),
    ("hybrid", lambda c: c.atpg_limits, Limits(max_conflicts=400_000)),
    ("refine", lambda c: c.refine_limits, Limits(max_conflicts=100_000)),
]


@pytest.mark.parametrize(
    "site, given, caps", RETRY_SITES, ids=[site[0] for site in RETRY_SITES]
)
def test_default_caps_double_on_first_retry(site, given, caps):
    config = RfnConfig()
    assert given(config).scaled(config.retry_scale ** 1) == caps


def test_retried_reach_step_gets_the_doubled_node_cap(monkeypatch):
    import repro.core.rfn as rfn_module

    real = rfn_module.forward_reach
    node_caps = []

    def out_of_nodes_once(*args, **kwargs):
        node_caps.append(reach_node_cap(kwargs["limits"]))
        reach = real(*args, **kwargs)
        if len(node_caps) == 1:
            reach.outcome = ReachOutcome.RESOURCE_OUT
            reach.abort_resource = "nodes"
        return reach

    monkeypatch.setattr(rfn_module, "forward_reach", out_of_nodes_once)
    circuit, prop = buggy_counter()
    result = rfn_verify(circuit, prop, RfnConfig())
    assert result.status is Verdict.FALSIFIED
    assert node_caps[:2] == [2_000_000, 4_000_000]


class TestKernelCheckpoint:
    def test_checkpoint_called_during_evaluate(self):
        circuit, _ = toggle_design()
        sim = BitParallelSimulator(circuit)
        calls = []
        sim.checkpoint = lambda: calls.append(1)
        state = sim.initial_state(1, default=0)
        inputs = {name: pack_bits(0, 1) for name in circuit.inputs}
        sim.step(state, inputs, 1)
        assert calls

    def test_expired_budget_aborts_evaluate(self):
        circuit, _ = toggle_design()
        sim = BitParallelSimulator(circuit)
        sim.checkpoint = Budget(max_seconds=0.0).hook("kernel")
        state = sim.initial_state(1, default=0)
        inputs = {name: pack_bits(0, 1) for name in circuit.inputs}
        with pytest.raises(Timeout):
            sim.step(state, inputs, 1)


class TestRfnBudget:
    def test_zero_budget_is_structured_resource_out(self):
        circuit, prop = toggle_design()
        config = RfnConfig(budget=Budget(max_seconds=0.0))
        result = rfn_verify(circuit, prop, config)
        assert result.status is Verdict.UNKNOWN
        assert result.failure is not None
        assert result.failure.resource == "time"

    def test_conflict_budget_is_structured_resource_out(self):
        circuit, prop = buggy_counter()
        config = RfnConfig(
            budget=Budget(max_conflicts=1), max_retries=0
        )
        result = rfn_verify(circuit, prop, config)
        assert result.status in (
            Verdict.UNKNOWN,
            Verdict.FALSIFIED,
        )
        if result.status is Verdict.UNKNOWN:
            assert result.failure is not None
            assert result.failure.resource in (
                "conflicts", "time", "depth", "cubes"
            )

    def test_generous_budget_does_not_change_verdict(self):
        circuit, prop = buggy_counter()
        config = RfnConfig(budget=Budget(max_seconds=60.0))
        result = rfn_verify(circuit, prop, config)
        assert result.status is Verdict.FALSIFIED
        assert result.trace is not None
