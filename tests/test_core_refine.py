"""Tests for the two-phase refinement (3-valued sim + greedy ATPG)."""

import pytest

from repro.atpg.engine import AtpgOutcome
from repro.core.abstraction import Abstraction
from repro.core.property import watchdog_property
from repro.core.refine import (
    crucial_register_candidates,
    minimize_candidates,
    refine_from_trace,
    trace_satisfiable_on,
)
from repro.trace import Trace
from repro.netlist import Circuit


def toggle_design():
    """x toggles every cycle (init 0); bad wants x high two cycles in a
    row, which the toggle makes impossible."""
    c = Circuit("tog")
    x = c.add_register("xd", init=0, output="x")
    c.g_not(x, output="xd")
    xprev = c.add_register(x, init=0, output="xprev")
    bad = c.g_and(x, xprev, output="bad")
    prop = watchdog_property(c, bad, "two_high")
    c.validate()
    return c, prop


def chain_design(depth=4):
    c = Circuit("chain")
    zero = c.g_const(0, output="zero")
    prev = c.add_register(zero, output="r1")
    for i in range(2, depth + 1):
        prev = c.add_register(prev, output=f"r{i}")
    prop = watchdog_property(c, prev, "tap_high")
    c.validate()
    return c, prop


class TestPhase1Conflicts:
    def test_toggle_conflict_detected(self):
        """A trace asserting x=1 at two consecutive cycles conflicts with
        the toggle register's simulated behaviour."""
        c, prop = toggle_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        # Hand-built abstract error trace: bad needs x=1 and xprev=1.
        trace = Trace(
            states=[{wd: 0}, {wd: 0}, {wd: 1}],
            inputs=[{"x": 1, "xprev": 1}, {"x": 1, "xprev": 1}, {}],
        )
        result = crucial_register_candidates(abstraction, trace)
        assert result.stats.conflicts_found
        assert "x" in result.registers or "xprev" in result.registers

    def test_no_conflict_falls_back_to_frequency(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        result = crucial_register_candidates(abstraction, trace)
        assert not result.stats.conflicts_found
        assert result.registers == ["r4"]

    def test_candidates_exclude_model_registers(self):
        c, prop = toggle_design()
        abstraction = Abstraction.initial(c, prop)
        abstraction.refine(["x"])
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0, "x": 0}, {wd: 0, "x": 1}],
            inputs=[{"xprev": 1}, {}],
        )
        result = crucial_register_candidates(abstraction, trace)
        assert "x" not in result.registers


class TestTraceSatisfiability:
    def test_trace_satisfiable_on_coarse_model(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        assert (
            trace_satisfiable_on(abstraction.model, trace)
            is AtpgOutcome.TRACE_FOUND
        )

    def test_trace_unsatisfiable_after_refinement(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        # Adding the whole chain pins r4 to the constant 0 pipeline, but a
        # 2-cycle trace only needs r4=1 at cycle 0, and r4's *initial*
        # value is 0 -- so the refined model refutes it.
        refined = abstraction.with_registers(["r4", "r3", "r2", "r1"])
        assert (
            trace_satisfiable_on(refined, trace)
            is AtpgOutcome.UNSATISFIABLE
        )


class TestPhase2Minimization:
    def test_greedy_stops_at_sufficient_prefix(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        # r4 alone invalidates the trace (its init value is 0, the trace
        # needs it 1 at cycle 0); the rest must be discarded.
        result = minimize_candidates(
            abstraction, trace, ["r4", "r3", "r2", "r1"]
        )
        assert result.registers == ["r4"]

    def test_removal_pass_drops_redundant_front(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        # r1 is useless on its own; the greedy loop adds r1 then r4 (which
        # invalidates); the removal pass should drop r1.
        result = minimize_candidates(abstraction, trace, ["r1", "r4"])
        assert result.registers == ["r4"]

    def test_abort_keeps_all_candidates(self, monkeypatch):
        """Paper: without a definitive ATPG answer, keep every candidate."""
        import repro.core.refine as refine_mod

        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        monkeypatch.setattr(
            refine_mod,
            "trace_satisfiable_on",
            lambda model, trace, limits=None, incremental=True,
            active=None, witness=None: AtpgOutcome.ABORTED,
        )
        result = refine_mod.minimize_candidates(
            abstraction, trace, ["r1", "r4"]
        )
        assert result.registers == ["r1", "r4"]

    def test_all_candidates_kept_when_trace_stays_satisfiable(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        # A long trace that r1/r2 cannot invalidate: r4 free long enough.
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        result = minimize_candidates(abstraction, trace, ["r1"])
        assert result.registers == ["r1"]


class TestRefineFromTrace:
    def test_end_to_end_refinement(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        result = refine_from_trace(abstraction, trace)
        assert result.registers == ["r4"]
        assert result.stats.minimized

    def test_minimization_disabled(self):
        c, prop = chain_design()
        abstraction = Abstraction.initial(c, prop)
        wd = prop.signals()[0]
        trace = Trace(
            states=[{wd: 0}, {wd: 1}],
            inputs=[{"r4": 1}, {}],
        )
        result = refine_from_trace(abstraction, trace, minimize=False)
        assert result.registers  # phase-1 candidates passed through
        assert not result.stats.minimized
