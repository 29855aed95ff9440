"""Tests for unreachable-coverage-state analysis (RFN and BFS modes)."""

import pytest

from repro.core.bfs_abstraction import bfs_abstract_model, closest_registers
from repro.core.coverage import (
    CoverageAnalyzer,
    CoverageConfig,
    bfs_coverage_analysis,
)
from repro.netlist import Circuit, NetlistError
from repro.netlist.words import WordReg, w_eq_const, w_inc


def one_hot_ring(n=3):
    """A one-hot ring counter: exactly one of s0..s{n-1} is ever high."""
    c = Circuit("ring")
    outs = []
    for i in range(n):
        outs.append(
            c.add_register(f"s{(i - 1) % n}", init=1 if i == 0 else 0,
                           output=f"s{i}")
        )
    c.validate()
    return c, [f"s{i}" for i in range(n)]


def gated_counter():
    """A 2-bit counter that only advances when a distant enable pipeline
    allows it -- and the pipeline never does (constant 0 source), so only
    the initial counter state is reachable."""
    c = Circuit("gated")
    zero = c.g_const(0, output="zero")
    en = c.add_register(zero, output="en1")
    en = c.add_register(en, output="en2")
    cnt = WordReg(c, "cnt", 2, init=0)
    nxt, _ = w_inc(c, cnt.q)
    held = [c.g_mux(en, q, n) for q, n in zip(cnt.q, nxt)]
    cnt.drive(held)
    c.validate()
    return c, ["cnt[0]", "cnt[1]"]


class TestBfsAbstraction:
    def test_closest_registers_bfs_order(self):
        c, signals = gated_counter()
        regs = closest_registers(c, signals, 10)
        # The counter bits first (distance 0), then en2, then en1.
        assert set(regs[:2]) == {"cnt[0]", "cnt[1]"}
        assert regs[2] == "en2"
        assert regs[3] == "en1"

    def test_closest_registers_respects_k(self):
        c, signals = gated_counter()
        assert len(closest_registers(c, signals, 2)) == 2

    def test_bfs_model_contains_registers(self):
        c, signals = gated_counter()
        result = bfs_abstract_model(c, signals, 3)
        assert set(result.model.registers) == {"cnt[0]", "cnt[1]", "en2"}
        assert result.model.is_subcircuit_of(c)


class TestBfsCoverage:
    def test_one_hot_unreachable_states(self):
        c, signals = one_hot_ring(3)
        result = bfs_coverage_analysis(c, signals, k=10)
        assert result.completed
        # 8 coverage states, 3 reachable one-hot states.
        assert result.num_unreachable == 5
        assert (1, 1, 1) in result.unreachable_states()

    def test_small_k_misses_states(self):
        """With too few registers the abstraction frees the rest and the
        BFS method identifies fewer (or equal) unreachable states."""
        c, signals = gated_counter()
        full = bfs_coverage_analysis(c, signals, k=10)
        tiny = bfs_coverage_analysis(c, signals, k=2)
        assert full.completed and tiny.completed
        assert tiny.num_unreachable <= full.num_unreachable
        # Full model: only cnt=00 reachable -> 3 unreachable states.
        assert full.num_unreachable == 3
        # Tiny model frees the enable: everything reachable.
        assert tiny.num_unreachable == 0


class TestRfnCoverage:
    def test_one_hot_all_states_classified(self):
        c, signals = one_hot_ring(3)
        analyzer = CoverageAnalyzer(c, signals)
        result = analyzer.run()
        assert result.num_unreachable == 5

    def test_gated_counter_refines_to_enable(self):
        c, signals = gated_counter()
        analyzer = CoverageAnalyzer(c, signals)
        result = analyzer.run()
        # RFN must pull in the enable pipeline to rule out cnt != 00.
        assert result.num_unreachable == 3
        assert result.iterations >= 1

    def test_rfn_matches_or_beats_bfs_with_small_budget(self):
        c, signals = gated_counter()
        rfn = CoverageAnalyzer(c, signals).run()
        bfs = bfs_coverage_analysis(c, signals, k=2)
        assert rfn.num_unreachable >= bfs.num_unreachable

    def test_coverage_requires_register_signals(self):
        c, signals = gated_counter()
        with pytest.raises(NetlistError):
            CoverageAnalyzer(c, ["zero"])

    def test_iteration_limit_respected(self):
        c, signals = gated_counter()
        config = CoverageConfig(max_iterations=1)
        result = CoverageAnalyzer(c, signals, config).run()
        assert result.iterations <= 1

    def test_time_limit(self):
        c, signals = gated_counter()
        config = CoverageConfig(max_seconds=0.0)
        result = CoverageAnalyzer(c, signals, config).run()
        assert result.seconds >= 0.0
        assert result.iterations == 0

    def test_log_hook(self):
        c, signals = one_hot_ring(3)
        messages = []
        config = CoverageConfig(log=messages.append)
        CoverageAnalyzer(c, signals, config).run()
        assert messages

    def test_reachable_marking(self):
        """On a free-running 2-bit counter every coverage state is
        reachable; the analyzer should mark states reachable via traces
        and identify nothing as unreachable."""
        c = Circuit("free")
        cnt = WordReg(c, "cnt", 2, init=0)
        nxt, _ = w_inc(c, cnt.q)
        cnt.drive(nxt)
        c.validate()
        result = CoverageAnalyzer(c, ["cnt[0]", "cnt[1]"]).run()
        assert result.num_unreachable == 0
        assert result.num_reachable_marked >= 1


# ----------------------------------------------------------------------
# Table 2 rows pinned at a 2-iteration cap
# ----------------------------------------------------------------------

#: (unreachable, reachable marked, undetermined, presim marked, traces
#: found, iterations, model registers) per row, seed-0 presimulation.
#: USB2 is the row whose guided search finds a concrete trace, so it
#: covers marking from a trace as well as from presimulation.
RFN_PINS = {
    "IU1": (741, 87, 196, 87, 0, 2, 26),
    "IU5": (768, 38, 218, 38, 0, 2, 26),
    "USB1": (24, 13, 27, 13, 0, 2, 8),
    "USB2": (2_020_799, 2144, 74_209, 2143, 1, 2, 22),
}

#: (unreachable, undetermined, model registers) of the BFS baseline, k=10.
BFS_PINS = {
    "IU1": (741, 283, 10),
    "IU5": (768, 256, 10),
    "USB1": (24, 40, 10),
    "USB2": (0, 2_097_152, 10),
}


@pytest.fixture(scope="module")
def table2_rows():
    from repro.designs import table2_workloads

    return {row.name: row for row in table2_workloads()}


@pytest.mark.parametrize("name", sorted(RFN_PINS))
def test_table2_rfn_counts_pinned(table2_rows, name):
    row = table2_rows[name]
    result = CoverageAnalyzer(
        row.circuit, row.signals, CoverageConfig(max_iterations=2)
    ).run()
    assert (
        result.num_unreachable,
        result.num_reachable_marked,
        result.num_undetermined,
        result.presim_marked,
        result.traces_found,
        result.iterations,
        result.model_registers,
    ) == RFN_PINS[name]
    # The three sets partition the coverage space.
    assert (
        result.num_unreachable
        + result.num_reachable_marked
        + result.num_undetermined
    ) == 2 ** len(row.signals)


@pytest.mark.parametrize("name", sorted(BFS_PINS))
def test_table2_bfs_counts_pinned(table2_rows, name):
    row = table2_rows[name]
    result = bfs_coverage_analysis(row.circuit, row.signals, k=10)
    assert result.completed
    assert (
        result.num_unreachable,
        result.sets.count(result.sets.undetermined),
        result.model_registers,
    ) == BFS_PINS[name]


def test_time_cap_is_reported():
    c, signals = gated_counter()
    capped = CoverageAnalyzer(c, signals, CoverageConfig(max_seconds=0.0))
    assert capped.run().timed_out
    assert not CoverageAnalyzer(c, signals).run().timed_out
