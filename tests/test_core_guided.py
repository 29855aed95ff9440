"""Tests for Step 3: trace replay and guided sequential ATPG."""

import pytest

from repro.core.guided import (
    guided_concrete_search,
    replay_trace,
    trace_is_concrete,
)
from repro.core.property import watchdog_property
from repro.trace import Trace
from repro.netlist import Circuit
from repro.netlist.words import WordReg, w_eq, w_eq_const, w_inc, word_input
from repro.sim import Simulator


def password_design(width=4, secret=0b1011):
    """Counter advances only while the input word matches a secret; the
    watchdog fires when the counter saturates.  Random search is unlikely
    to find it; guidance pins the secret inputs."""
    c = Circuit("pwd")
    data = word_input(c, "data", width)
    cnt = WordReg(c, "cnt", 3, init=0)
    ok = w_eq_const(c, data, secret)
    nxt, _ = w_inc(c, cnt.q)
    held = [c.g_mux(ok, q, n) for q, n in zip(cnt.q, nxt)]
    cnt.drive(held)
    bad = w_eq_const(c, cnt.q, 7)
    prop = watchdog_property(c, bad, "unlocked")
    c.validate()
    return c, prop


class TestConcreteness:
    def test_input_only_trace_is_concrete(self):
        c, prop = password_design()
        trace = Trace(
            states=[{}, {}],
            inputs=[{"data[0]": 1}, {"data[1]": 0}],
        )
        assert trace_is_concrete(c, trace)

    def test_state_assignments_not_concrete(self):
        c, prop = password_design()
        trace = Trace(states=[{"cnt[0]": 1}], inputs=[{}])
        assert not trace_is_concrete(c, trace)


class TestReplay:
    def test_replay_finds_violation(self):
        c, prop = password_design(width=2, secret=0b11)
        # 8 cycles of the correct password saturate the 3-bit counter.
        trace = Trace(
            states=[{} for _ in range(9)],
            inputs=[{"data[0]": 1, "data[1]": 1} for _ in range(9)],
        )
        concrete = replay_trace(c, prop, trace)
        assert concrete is not None
        sim = Simulator(c)
        frames = sim.run(concrete.inputs, state=concrete.states[0])
        wd = prop.signals()[0]
        assert frames[-1][wd] == 1

    def test_replay_fails_on_wrong_inputs(self):
        c, prop = password_design(width=2, secret=0b11)
        trace = Trace(
            states=[{} for _ in range(9)],
            inputs=[{"data[0]": 0, "data[1]": 1} for _ in range(9)],
        )
        assert replay_trace(c, prop, trace) is None


class TestGuidedSearch:
    def abstract_trace(self, c, prop, cycles):
        """A schematic abstract trace: the watchdog's bad feed must be high
        at the end; intermediate cubes pin the counter's progress."""
        states = []
        for t in range(cycles):
            cube = {}
            value = min(t, 7)
            for i in range(3):
                cube[f"cnt[{i}]"] = (value >> i) & 1
            states.append(cube)
        inputs = [{} for _ in range(cycles)]
        return Trace(states=states, inputs=inputs)

    def test_guided_search_finds_trace(self):
        c, prop = password_design()
        guide = self.abstract_trace(c, prop, 9)
        wd = prop.signals()[0]
        guide.states[8][wd] = 1
        result = guided_concrete_search(c, prop, [guide])
        assert result.found
        assert result.method in ("guided-atpg", "direct-replay")
        # Verify end to end on the simulator.
        sim = Simulator(c)
        frames = sim.run(result.trace.inputs, state=result.trace.states[0])
        assert frames[-1][wd] == 1

    def test_unguided_search_same_depth(self):
        c, prop = password_design()
        guide = self.abstract_trace(c, prop, 9)
        result = guided_concrete_search(c, prop, [guide], use_guidance=False)
        assert result.found  # depth bound alone suffices here
        assert result.method == "unguided-atpg"

    def test_guidance_prunes_search(self):
        """Guided search should need no more conflicts than unguided."""
        c, prop = password_design()
        guide = self.abstract_trace(c, prop, 9)
        guided = guided_concrete_search(c, prop, [guide])
        unguided = guided_concrete_search(c, prop, [guide], use_guidance=False)
        assert guided.conflicts <= unguided.conflicts

    def test_no_trace_when_depth_too_small(self):
        c, prop = password_design()
        guide = self.abstract_trace(c, prop, 3)  # too short to unlock
        result = guided_concrete_search(c, prop, [guide])
        assert not result.found

    def test_multi_trace_guidance(self):
        """Section 5 future work: a set of traces, first one bogus."""
        c, prop = password_design()
        bogus = self.abstract_trace(c, prop, 2)
        good = self.abstract_trace(c, prop, 9)
        result = guided_concrete_search(c, prop, [bogus, good])
        assert result.found

    def test_no_traces_given(self):
        c, prop = password_design()
        result = guided_concrete_search(c, prop, [])
        assert not result.found
        assert result.outcome is None

    def test_extra_depth(self):
        c, prop = password_design()
        guide = self.abstract_trace(c, prop, 8)  # one cycle short
        result = guided_concrete_search(c, prop, [guide], extra_depth=1)
        assert result.found
