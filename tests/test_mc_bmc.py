"""Tests for bounded model checking and k-induction."""

import pytest

from repro.mc.bmc import BmcOutcome, bmc
from repro.runtime.abort import Timeout
from repro.runtime.budget import Budget, Limits
from repro.sat.solver import Solver
from repro.sim import Simulator

from tests.conftest import (
    free_counter_with_bad,
    saturating_counter,
    unreachable_lasso,
)


def bmc_saturating_counter():
    # BMC tests use a lower ceiling so induction closes within depth 8.
    return saturating_counter(ceiling=4)


class TestFalsification:
    def test_counterexample_at_exact_depth(self):
        c, prop = free_counter_with_bad(bad_value=5)
        result = bmc(c, prop, Limits(max_depth=10))
        assert result.outcome is BmcOutcome.FALSE
        # cnt==5 at cycle 5, watchdog latches at cycle 6.
        assert result.depth == 6
        assert result.trace.length == 7

    def test_counterexample_replays(self):
        c, prop = free_counter_with_bad(bad_value=3)
        result = bmc(c, prop, Limits(max_depth=10))
        sim = Simulator(c)
        frames = sim.run(result.trace.inputs, state=result.trace.states[0])
        wd = prop.signals()[0]
        assert frames[-1][wd] == 1

    def test_depth_too_small_unknown(self):
        c, prop = free_counter_with_bad(bad_value=6)
        result = bmc(c, prop, Limits(max_depth=3), induction=False)
        assert result.outcome is BmcOutcome.UNKNOWN


class TestInduction:
    def test_saturating_counter_proved(self):
        c, prop = bmc_saturating_counter()
        result = bmc(c, prop, Limits(max_depth=16))
        assert result.outcome is BmcOutcome.TRUE
        assert result.induction_depth is not None
        assert result.induction_depth <= 8

    def test_plain_induction_defeated_by_unreachable_lasso(self):
        c, prop = unreachable_lasso()
        result = bmc(c, prop, Limits(max_depth=6), induction=True,
                     unique_states=False)
        assert result.outcome is BmcOutcome.UNKNOWN

    def test_simple_path_constraints_close_the_proof(self):
        c, prop = unreachable_lasso()
        result = bmc(c, prop, Limits(max_depth=8), induction=True,
                     unique_states=True)
        assert result.outcome is BmcOutcome.TRUE

    def test_induction_disabled_never_proves(self):
        c, prop = bmc_saturating_counter()
        result = bmc(c, prop, Limits(max_depth=8), induction=False)
        assert result.outcome is BmcOutcome.UNKNOWN


class TestLimits:
    def test_default_envelope_is_depth_32(self):
        c, prop = free_counter_with_bad(width=6, bad_value=40)
        assert bmc(c, prop, induction=False).depth == 32
        deep = bmc(c, prop, Limits(max_depth=41), induction=False)
        assert deep.outcome is BmcOutcome.FALSE and deep.depth == 41

    @pytest.mark.parametrize("incremental", [True, False])
    def test_solves_get_the_conflict_cap_and_no_propagation_cap(
        self, monkeypatch, incremental
    ):
        seen = set()
        real = Solver.solve

        def spy(solver, *args, **kwargs):
            seen.add(
                (kwargs.get("max_conflicts"), kwargs.get("max_propagations"))
            )
            return real(solver, *args, **kwargs)

        monkeypatch.setattr(Solver, "solve", spy)
        c, prop = free_counter_with_bad(bad_value=5)
        bmc(c, prop, incremental=incremental)
        assert seen == {(200_000, None)}
        seen.clear()
        bmc(c, prop, Limits(max_depth=10), incremental=incremental)
        assert seen == {(None, None)}

    def test_expired_budget_raises(self):
        c, prop = free_counter_with_bad(bad_value=5)
        with pytest.raises(Timeout):
            bmc(c, prop, Limits(budget=Budget(max_seconds=0.0)))


class TestOptions:
    def test_coi_reduction_optional(self):
        c, prop = bmc_saturating_counter()
        with_coi = bmc(c, prop, Limits(max_depth=12), use_coi=True)
        without = bmc(c, prop, Limits(max_depth=12), use_coi=False)
        assert with_coi.outcome == without.outcome == BmcOutcome.TRUE

    def test_lasso_state_is_truly_unreachable(self):
        """Sanity: random simulation of the lasso design never sees 6."""
        from repro.sim import RandomSimulator

        c, prop = unreachable_lasso()
        rs = RandomSimulator(c, seed=0)
        for frame in rs.random_run(300):
            value = frame["q[0]"] + 2 * frame["q[1]"] + 4 * frame["q[2]"]
            assert value in (0, 1, 2)
