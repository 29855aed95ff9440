"""CLI tests for the observability surface: ``--trace`` on verify/fuzz,
the ``trace`` validator/exporters, and the ``report`` renderer."""

import json

import pytest

from repro.cli import main
from repro.designs.counters import saturating_counter, shift_chain
from repro.netlist import circuit_to_text
from repro.obs import TRACER, load_records, validate_file


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.close()
    TRACER.drain()
    yield
    TRACER.close()
    TRACER.drain()


@pytest.fixture
def true_netlist(tmp_path):
    circuit, prop = saturating_counter(3, ceiling=5)
    path = tmp_path / "sat.net"
    path.write_text(circuit_to_text(circuit))
    return str(path), prop.signals()[0]


@pytest.fixture
def false_netlist(tmp_path):
    circuit, prop = shift_chain(3, source_constant=1)
    path = tmp_path / "chain.net"
    path.write_text(circuit_to_text(circuit))
    return str(path), prop.signals()[0]


class TestVerifyTrace:
    def test_rfn_trace_is_schema_valid(self, true_netlist, tmp_path, capsys):
        path, wd = true_netlist
        trace = str(tmp_path / "out.jsonl")
        assert main(["verify", path, "--watchdog", wd,
                     "--trace", trace]) == 0
        assert f"obs trace written to {trace}" in capsys.readouterr().out
        assert validate_file(trace) == []
        names = {
            r.get("name")
            for r in load_records(trace)
            if r.get("type") == "span"
        }
        assert "rfn.iteration" in names
        assert "mc.reach" in names
        # Model-checking set-up is attributed too, not left unclaimed.
        assert "mc.encode" in names
        assert "mc.cluster" in names

    def test_trace_disabled_after_run(self, true_netlist, tmp_path):
        path, wd = true_netlist
        trace = str(tmp_path / "out.jsonl")
        main(["verify", path, "--watchdog", wd, "--trace", trace])
        assert not TRACER.enabled

    def test_falsified_run_still_closes_trace(
        self, false_netlist, tmp_path
    ):
        path, wd = false_netlist
        trace = str(tmp_path / "out.jsonl")
        assert main(["verify", path, "--watchdog", wd,
                     "--trace", trace]) == 1
        assert validate_file(trace) == []

    def test_portfolio_jobs_trace_has_worker_lanes(
        self, true_netlist, tmp_path
    ):
        path, wd = true_netlist
        trace = str(tmp_path / "out.jsonl")
        assert main(["verify", path, "--watchdog", wd,
                     "--engine", "portfolio", "--jobs", "4",
                     "--trace", trace]) == 0
        assert validate_file(trace) == []
        records = load_records(trace)
        parent_pid = records[0]["pid"]
        worker_pids = {
            r["pid"]
            for r in records
            if r.get("type") == "span" and r["pid"] != parent_pid
        }
        assert len(worker_pids) >= 2


class TestTraceSubcommand:
    @pytest.fixture
    def tracefile(self, true_netlist, tmp_path):
        path, wd = true_netlist
        trace = str(tmp_path / "out.jsonl")
        main(["verify", path, "--watchdog", wd, "--trace", trace])
        return trace

    def test_validate_default_action(self, tracefile, capsys):
        assert main(["trace", tracefile]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_trace_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "name": "x"}\n')
        assert main(["trace", str(bad)]) == 1
        assert "schema problem" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", str(bad)]) == 3

    def test_chrome_export_round_trip(self, tracefile, tmp_path):
        out = str(tmp_path / "t.chrome.json")
        assert main(["trace", tracefile, "--chrome", "-o", out]) == 0
        with open(out) as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert events
        assert all(
            e["ts"] >= 0 for e in events if e.get("ph") in ("X", "i")
        )
        assert any(e.get("ph") == "M" for e in events)

    def test_chrome_default_output_path(self, tracefile, capsys):
        assert main(["trace", tracefile, "--chrome"]) == 0
        out = capsys.readouterr().out
        assert f"{tracefile}.chrome.json" in out

    def test_flame_export(self, tracefile, tmp_path):
        out = str(tmp_path / "t.folded")
        assert main(["trace", tracefile, "--flame", "-o", out]) == 0
        with open(out) as handle:
            lines = handle.read().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0

    def test_export_to_stdout(self, tracefile, capsys):
        assert main(["trace", tracefile, "--chrome", "-o", "-"]) == 0
        json.loads(capsys.readouterr().out)

    def test_validate_and_export_combined(self, tracefile, capsys):
        assert main(["trace", tracefile, "--chrome", "--validate",
                     "-o", "-"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out.splitlines()[0]


class TestReportSubcommand:
    def test_report_rfn_table(self, true_netlist, tmp_path, capsys):
        path, wd = true_netlist
        trace = str(tmp_path / "out.jsonl")
        main(["verify", path, "--watchdog", wd, "--trace", trace])
        capsys.readouterr()
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "RFN iterations" in out
        assert "Counters (final snapshot)" in out

    def test_report_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 3


class TestFuzzTrace:
    def test_fuzz_trace_is_schema_valid(self, tmp_path, capsys):
        trace = str(tmp_path / "fuzz.jsonl")
        code = main(["fuzz", "--seed", "0", "--iters", "2",
                     "--max-registers", "2", "--max-gates", "6",
                     "--no-shrink", "--trace", trace])
        assert code in (0, 1)
        assert validate_file(trace) == []
        names = {
            r.get("name")
            for r in load_records(trace)
            if r.get("type") == "span"
        }
        assert "fuzz.campaign" in names
        assert "fuzz.instance" in names
