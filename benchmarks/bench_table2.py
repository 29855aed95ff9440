"""Table 2 -- Unreachable-coverage-state analysis results.

Regenerates the paper's Table 2: for each coverage-signal set (IU1-IU5
from the integer-unit-like cluster, USB1-USB2 from the USB-like engine)
run the RFN coverage analyzer against the BFS abstraction baseline [8]:

    regs in COI | gates in COI | RFN #unreachable | regs in abstract
    model | BFS #unreachable | BFS time

The paper fixed the BFS register budget at 60 and gave RFN an 1,800 s
budget; at CI scale the designs are smaller, so the BFS budget shrinks
proportionally (it must stay below the design size or BFS trivially
equals the exact analysis) and RFN gets a per-row time budget.  A row
that runs into that budget fails rather than report a partial count.

Shape target: "RFN uniformly beats or matches the BFS results".
"""

from __future__ import annotations

import pytest

from repro.core.coverage import (
    CoverageAnalyzer,
    CoverageConfig,
    bfs_coverage_analysis,
)
from repro.designs import paper_scale_enabled, table2_workloads
from repro.netlist.ops import coi_stats
from reporting import emit_table

WORKLOADS = table2_workloads()
BFS_K = 60 if paper_scale_enabled() else 10
RFN_SECONDS = 1800 if paper_scale_enabled() else 45
_ROWS = {}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_table2_row(benchmark, workload):
    coi_regs, coi_gates = coi_stats(workload.circuit, workload.signals)

    def run():
        rfn = CoverageAnalyzer(
            workload.circuit,
            workload.signals,
            CoverageConfig(max_seconds=RFN_SECONDS, max_iterations=16),
        ).run()
        bfs = bfs_coverage_analysis(
            workload.circuit, workload.signals, k=BFS_K
        )
        return rfn, bfs

    rfn, bfs = benchmark.pedantic(run, rounds=1, iterations=1)
    # A row cut short by the wall-clock cap would report a partial
    # unreachable count as the row's answer.
    assert not rfn.timed_out, (
        f"Table 2 row {workload.name}: RFN stopped by the {RFN_SECONDS} s "
        f"cap after {rfn.iterations} iterations with only "
        f"{rfn.num_unreachable} unreachable states"
    )
    # The paper's headline: RFN uniformly beats or matches BFS.
    assert rfn.num_unreachable >= bfs.num_unreachable
    _ROWS[workload.name] = (
        workload.name,
        coi_regs,
        coi_gates,
        rfn.num_unreachable,
        rfn.model_registers,
        bfs.num_unreachable,
        f"{bfs.seconds:.2f}",
    )


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    rows = [_ROWS[w.name] for w in WORKLOADS if w.name in _ROWS]
    if not rows:
        return
    emit_table(
        "table2",
        f"Table 2. Unreachable-coverage-state analysis (BFS k={BFS_K})",
        ["Signals", "Regs in COI", "Gates in COI", "RFN unreach",
         "Regs in model", "BFS unreach", "BFS time (s)"],
        rows,
    )
