"""Every engine, reachable through the registry, answers correctly.

The acceptance contract of the engine layer: each registered engine's
``VerifyResult`` on the seed designs matches the verdict its
pre-registry implementation produced (both property polarities), every
falsification canonicalizes to the *same* counterexample regardless of
which engine found it, and the CLI surfaces (``repro engines``,
``repro verify --engine <name>``) resolve the same registry entries.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.engine import (
    FunctionEngine,
    Limits,
    Verdict,
    VerifyResult,
    WITNESS_TRACE,
    registry,
)
from repro.netlist import circuit_to_text
from repro.parallel.portfolio import canonical_witness

from tests.conftest import buggy_counter, toggle_design

ENGINE_NAMES = ("atpg", "bdd", "bmc", "kernel", "kinduction", "rfn")

#: engine -> expected verdict on the true-property seed design (the
#: bounded falsification specialists cannot answer VERIFIED).
TOGGLE_EXPECTED = {
    "bdd": Verdict.VERIFIED,
    "rfn": Verdict.VERIFIED,
    "kinduction": Verdict.VERIFIED,
    "kernel": Verdict.VERIFIED,
    "bmc": Verdict.UNKNOWN,
    "atpg": Verdict.UNKNOWN,
}


def test_registry_lists_every_engine():
    assert registry.names() == ENGINE_NAMES
    for name in ENGINE_NAMES:
        assert name in registry
        engine = registry.get(name)
        assert engine.name == name
        assert engine.description
        assert engine.capabilities


def test_registry_describe_is_json_able():
    rows = registry.describe()
    payload = json.loads(json.dumps(rows))
    assert [row["name"] for row in payload] == list(ENGINE_NAMES)
    for row in payload:
        assert row["description"]
        assert isinstance(row["capabilities"], list)


def test_registry_unknown_name_lists_known_engines():
    with pytest.raises(KeyError, match="kinduction"):
        registry.get("quantum")


def test_registry_overlay_replaces_and_restores():
    stub = FunctionEngine(
        "bmc",
        lambda c, p, limits: VerifyResult(
            engine="bmc", verdict=Verdict.UNKNOWN, detail="stub"
        ),
    )
    original = registry.get("bmc")
    with registry.overlay(stub):
        assert registry.get("bmc") is stub
    assert registry.get("bmc") is original


# --------------------------------------------------------------------
# Verdict parity on the seed designs, both polarities
# --------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_engine_verdict_on_true_property(name):
    circuit, prop = toggle_design()
    result = registry.get(name).run(circuit, prop)
    assert result.verdict is TOGGLE_EXPECTED[name], (
        f"{name}: {result.verdict} ({result.detail})"
    )
    assert result.engine == name
    assert result.seconds >= 0.0
    if result.verified:
        assert result.witness is not None
    else:
        assert result.trace is None


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_engine_falsifies_buggy_counter_with_canonical_trace(name):
    circuit, prop = buggy_counter()
    result = registry.get(name).run(circuit, prop)
    assert result.verdict is Verdict.FALSIFIED, (
        f"{name}: {result.verdict} ({result.detail})"
    )
    assert result.witness == WITNESS_TRACE
    assert result.trace is not None
    # Whatever witness the engine found, it canonicalizes to *the*
    # counterexample -- identical across all six engines.
    canon = canonical_witness(circuit, prop, result.trace)
    reference = canonical_witness(
        circuit, prop, registry.get("bmc").run(circuit, prop).trace
    )
    assert canon.states == reference.states
    assert canon.inputs == reference.inputs


def test_bounded_engines_respect_depth_limit():
    circuit, prop = buggy_counter()  # counterexample at depth 9
    for name in ("bmc", "atpg"):
        result = registry.get(name).run(
            circuit, prop, Limits(max_depth=3)
        )
        assert result.verdict is Verdict.UNKNOWN, f"{name}: {result.detail}"


def test_bdd_engine_reorders_between_image_steps(monkeypatch):
    # A 10-bit LFSR's reachability table grows past the manager's
    # reorder trigger, so dynamic reordering must get its chance.
    from repro.bdd import BDD
    from repro.designs.counters import lfsr

    calls = []
    real = BDD.maybe_sift

    def counting(self, *args, **kwargs):
        calls.append(real(self, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(BDD, "maybe_sift", counting)
    circuit, prop = lfsr(10)
    result = registry.get("bdd").run(circuit, prop)
    assert result.verdict is Verdict.VERIFIED
    assert len(calls) >= 1
    assert any(calls), "the table never grew past the reorder trigger"


def test_contained_crash_degrades_to_error_result():
    bomb = FunctionEngine(
        "bomb", lambda c, p, limits: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
    )
    circuit, prop = toggle_design()
    result = bomb.run(circuit, prop)
    assert result.verdict is Verdict.ERROR
    assert "boom" in result.detail
    with pytest.raises(RuntimeError):
        bomb.run(circuit, prop, contain=False)


# --------------------------------------------------------------------
# CLI surfaces resolve the same registry
# --------------------------------------------------------------------


def test_cli_engines_json_lists_registry(capsys):
    assert cli_main(["engines", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in payload] == list(ENGINE_NAMES)


def test_cli_engines_table_mentions_capabilities(capsys):
    assert cli_main(["engines"]) == 0
    out = capsys.readouterr().out
    for name in ENGINE_NAMES:
        assert name in out
    assert "capabilities:" in out


def _write_design(tmp_path, builder, filename):
    circuit, prop = builder()
    path = tmp_path / filename
    path.write_text(circuit_to_text(circuit))
    target = ",".join(f"{k}={v}" for k, v in prop.target.items())
    return str(path), target


@pytest.mark.parametrize("name", ["bdd", "kinduction", "kernel"])
def test_cli_verify_registry_engine_verified_exits_0(tmp_path, name, capsys):
    path, target = _write_design(tmp_path, toggle_design, "tog.net")
    code = cli_main(
        ["verify", path, "--target", target, "--engine", name]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert f"{name}: verified" in out


@pytest.mark.parametrize("name", ["atpg", "kernel", "bdd"])
def test_cli_verify_registry_engine_falsified_exits_1(tmp_path, name, capsys):
    path, target = _write_design(tmp_path, buggy_counter, "cnt.net")
    code = cli_main(
        ["verify", path, "--target", target, "--engine", name]
    )
    out = capsys.readouterr().out
    assert code == 1, out
    assert f"{name}: falsified" in out
    # The trace is printed for falsifications.
    assert "cnt" in out
