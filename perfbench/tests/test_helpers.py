"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import repro.core  # noqa: E402,F401  (first import; see NOTES.md)
from rfnbench import harness, layers, stats  # noqa: E402
from rfnbench.workloads import WORKLOADS, Serve  # noqa: E402


# -- self time ----------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def nested_module(monkeypatch):
    """A stand-in for three layers: minimisation calls sequential ATPG,
    which builds a solver session.  Each advances a fake clock."""
    clock = FakeClock()
    monkeypatch.setattr(layers, "time", clock)
    module = types.ModuleType("fake_layers")

    def session():
        clock.now += 3.0

    def sequential_atpg():
        clock.now += 1.0
        module.session()
        clock.now += 1.0
        module.session()

    def minimize():
        clock.now += 0.5
        module.sequential_atpg()
        clock.now += 0.25

    module.session = session
    module.sequential_atpg = sequential_atpg
    module.minimize = minimize
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_self_time_subtracts_nested_wrapped_calls(nested_module):
    timer = layers.LayerTimer()
    originals = dict(vars(nested_module))
    timer.install((
        ("fake_layers", "minimize", "core.refine.phase2"),
        ("fake_layers", "sequential_atpg", "atpg.sequential"),
        ("fake_layers", "session", "kernel.scache.session"),
    ))
    nested_module.minimize()
    nested_module.minimize()
    timer.uninstall()
    assert timer.self_s["kernel.scache.session"] == pytest.approx(12.0)
    assert timer.self_s["atpg.sequential"] == pytest.approx(4.0)
    assert timer.self_s["core.refine.phase2"] == pytest.approx(1.5)
    assert timer.calls["kernel.scache.session"] == 4
    assert timer.calls["core.refine.phase2"] == 2
    for name in ("minimize", "sequential_atpg", "session"):
        assert getattr(nested_module, name) is originals[name]


def test_uninstall_restores_every_real_call_site():
    import importlib

    before = {}
    for module_name, path, _ in layers.CALL_SITES:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        before[(module_name, path)] = (owner, vars(owner).get(attr))
    timer = layers.LayerTimer()
    timer.install()
    timer.uninstall()
    for (module_name, path), (owner, value) in before.items():
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        now_owner = getattr(module, owner_name) if owner_name else module
        assert now_owner is owner, path
        assert vars(now_owner).get(attr) is value, path


# -- tail percentile ----------------------------------------------------


@pytest.mark.parametrize("count", [11, 12, 14, 20, 35, 100, 257])
def test_tail_leaves_exactly_ten_samples_beyond(count):
    values = [float(v) for v in range(count)]
    q, value = stats.tail(values)
    assert q == pytest.approx(100.0 * (1 - 10 / count))
    assert sum(1 for v in values if v > value) == 10


def test_tail_rule_edges():
    assert stats.tail_percentile(20) == pytest.approx(50.0)
    assert stats.tail_percentile(100) == pytest.approx(90.0)
    assert stats.tail_percentile(10) == 0.0
    assert stats.tail([4.0, 2.0, 3.0]) == (0.0, 2.0)


# -- metric names -------------------------------------------------------


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = harness.end_to_end(
        [harness.Outcome("x", 1.0, "verified", ok=True)], 1.0, [0.5], 1.0
    )
    stats.check_names(end_to_end)
    stats.check_names(harness.PER_LAYER_UNITS)
    for workload in WORKLOADS.values():
        stats.check_names(workload.layer_units)
        assert not set(workload.layer_units) & set(harness.PER_LAYER_UNITS)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [m["name"] for m in spec["per_layer"]] == \
        list(harness.PER_LAYER_UNITS)
    for entry in spec["end_to_end"]:
        assert entry["unit"] == end_to_end[entry["name"]]["unit"]
    for entry in spec["per_layer"]:
        assert entry["unit"] == harness.PER_LAYER_UNITS[entry["name"]]


@pytest.mark.parametrize("name", ["bad name", "x/y", "", "a" * 65, "é"])
def test_check_names_rejects(name):
    with pytest.raises(ValueError):
        stats.check_names({name: 1})


# -- a lying engine is caught -------------------------------------------


def _flipping(engine):
    """An engine that runs ``engine`` and reports the opposite of every
    definite verdict it reaches."""
    from repro.engine import FunctionEngine, Verdict

    flip = {Verdict.VERIFIED: Verdict.FALSIFIED,
            Verdict.FALSIFIED: Verdict.VERIFIED}

    def body(circuit, prop, limits):
        result = engine.run(circuit, prop, limits)
        result.verdict = flip.get(result.verdict, result.verdict)
        return result

    return FunctionEngine(engine.name, body)


def test_lying_engine_fails_the_run(tmp_path, capsys):
    from repro.engine import registry

    with registry.overlay(_flipping(registry.get("bdd"))):
        code = harness.run("serve", seed=0, seconds=0, trace=False,
                           out_dir=str(tmp_path))
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert report["correct"] is False
    assert report["failed"] == report["attempted"] > 0


def test_honest_serve_pass_checks_correct(tmp_path):
    workload = Serve(str(tmp_path))
    workload.setup(seed=0)
    try:
        outcomes = workload.run_pass()
    finally:
        workload.cleanup()
    workload.check(outcomes)
    assert outcomes and all(o.ok for o in outcomes), \
        [o.why for o in outcomes if not o.ok]


def test_table1_check_rejects_wrong_verdicts_and_grown_rows():
    from rfnbench.workloads import TABLE1_EXPECTED, Outcome, Table1

    def outcome(name, verdict, iterations, registers):
        return Outcome(name, 0.1, verdict, info={
            "iterations": iterations, "registers": registers})

    good = outcome("mutex", *TABLE1_EXPECTED["mutex"])
    smaller = outcome("psh_hf", "verified", 5, 4)
    flipped = outcome("psh_af", "falsified", 6, 6)
    grown = outcome("psh_full", "verified", 7, 6)
    undecided = outcome("mutex", "unknown", 3, 3)
    Table1("").check([good, smaller, flipped, grown, undecided])
    assert good.ok and smaller.ok
    assert not flipped.ok and not grown.ok and not undecided.ok
