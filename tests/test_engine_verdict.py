"""The canonical verdict algebra, exit-code ladder and wire formats.

The four-element verdict domain is small enough to check the lattice
laws *exhaustively* -- every pair and every triple -- rather than
sampling: commutativity, associativity, idempotence, definite-wins, and
the one deliberate non-law (contradictory definites raise
``DisagreeError`` instead of folding).  The exit-code tests pin every
code the CLI surfaces may ever return; the round-trip tests prove a
verdict plus its witness survive the worker pipe and the journal
byte-for-byte.
"""

import json
import pickle

import pytest

from repro.engine import (
    DEFINITE,
    EXIT_FALSIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_INFRASTRUCTURE,
    EXIT_RETRY_LATER,
    EXIT_USAGE,
    EXIT_VERIFIED,
    DisagreeError,
    Verdict,
    VerifyResult,
    WITNESS_KINDS,
    WITNESS_TRACE,
    batch_exit,
    join_all,
    meet_all,
    result_exit,
    verdict_to_exit,
)
from repro.runtime.supervisor import AbortInfo
from repro.trace import Trace

ALL = list(Verdict)


def _try(op, *args):
    """Apply ``op``; a DisagreeError becomes the sentinel "disagree"
    so raising groupings compare equal to each other."""
    try:
        return op(*args)
    except DisagreeError:
        return "disagree"


# --------------------------------------------------------------------
# Lattice laws, exhaustively over the 4-element domain
# --------------------------------------------------------------------


@pytest.mark.parametrize("op", [Verdict.join, Verdict.meet])
def test_idempotent(op):
    for a in ALL:
        assert op(a, a) is a


@pytest.mark.parametrize("op", [Verdict.join, Verdict.meet])
def test_commutative(op):
    for a in ALL:
        for b in ALL:
            assert _try(op, a, b) == _try(op, b, a)


@pytest.mark.parametrize("op", [Verdict.join, Verdict.meet])
def test_associative_on_conflict_free_triples(op):
    """On the conflict-free sublattice both operations are associative.
    Triples containing both definite verdicts are excluded: there the
    *eager* DisagreeError is the contract (see the tests below), and
    meet deliberately trades associativity for never absorbing a
    soundness bug into doubt."""
    for a in ALL:
        for b in ALL:
            for c in ALL:
                if {Verdict.VERIFIED, Verdict.FALSIFIED} <= {a, b, c}:
                    continue
                assert op(op(a, b), c) is op(a, op(b, c)), (a, b, c)


def test_join_raises_under_any_grouping_of_a_conflict():
    """Definite-wins means a contradiction can never be masked by
    grouping: every parenthesization of a triple containing both
    definite verdicts raises."""
    for a in ALL:
        for b in ALL:
            for c in ALL:
                if {Verdict.VERIFIED, Verdict.FALSIFIED} <= {a, b, c}:
                    assert _try(
                        lambda: Verdict.join(Verdict.join(a, b), c)
                    ) == "disagree"
                    assert _try(
                        lambda: Verdict.join(a, Verdict.join(b, c))
                    ) == "disagree"


def test_join_definite_wins():
    for definite in DEFINITE:
        for weak in (Verdict.UNKNOWN, Verdict.ERROR):
            assert definite.join(weak) is definite
            assert weak.join(definite) is definite


def test_meet_doubt_wins():
    for definite in DEFINITE:
        for weak in (Verdict.UNKNOWN, Verdict.ERROR):
            assert definite.meet(weak) is weak
            assert weak.meet(definite) is weak
    assert Verdict.ERROR.meet(Verdict.UNKNOWN) is Verdict.UNKNOWN


@pytest.mark.parametrize("op", [Verdict.join, Verdict.meet])
def test_contradictory_definites_raise(op):
    with pytest.raises(DisagreeError) as info:
        op(Verdict.VERIFIED, Verdict.FALSIFIED)
    assert info.value.left is Verdict.VERIFIED
    assert info.value.right is Verdict.FALSIFIED
    assert "verified" in str(info.value)
    assert "falsified" in str(info.value)


def test_join_all_folds_and_defaults():
    assert join_all([]) is Verdict.UNKNOWN
    assert join_all([], default=Verdict.ERROR) is Verdict.ERROR
    assert join_all(
        [Verdict.UNKNOWN, Verdict.ERROR, Verdict.VERIFIED]
    ) is Verdict.VERIFIED
    with pytest.raises(DisagreeError):
        join_all([Verdict.VERIFIED, Verdict.UNKNOWN, Verdict.FALSIFIED])


def test_meet_all_folds_and_defaults():
    assert meet_all([]) is Verdict.UNKNOWN
    assert meet_all([Verdict.VERIFIED, Verdict.VERIFIED]) is Verdict.VERIFIED
    assert meet_all(
        [Verdict.VERIFIED, Verdict.UNKNOWN]
    ) is Verdict.UNKNOWN
    with pytest.raises(DisagreeError):
        meet_all([Verdict.VERIFIED, Verdict.FALSIFIED])


# --------------------------------------------------------------------
# Wire-format compatibility: str, json, pickle
# --------------------------------------------------------------------


def test_verdict_is_wire_compatible_with_bare_strings():
    assert Verdict.VERIFIED == "verified"
    assert hash(Verdict.FALSIFIED) == hash("falsified")
    assert {"falsified": 1}[Verdict.FALSIFIED] == 1
    assert json.dumps(Verdict.ERROR) == '"error"'
    assert f"{Verdict.UNKNOWN}" == "unknown"
    assert str(Verdict.VERIFIED) == "verified"


def test_verdict_pickles_to_member_identity():
    for verdict in ALL:
        assert pickle.loads(pickle.dumps(verdict)) is verdict


def test_coerce_accepts_members_and_strings():
    assert Verdict.coerce("verified") is Verdict.VERIFIED
    assert Verdict.coerce(Verdict.ERROR) is Verdict.ERROR
    with pytest.raises(ValueError):
        Verdict.coerce("maybe")


# --------------------------------------------------------------------
# The exit-code ladder (every code, pinned)
# --------------------------------------------------------------------


def test_verdict_to_exit_pins_every_code():
    assert verdict_to_exit(Verdict.VERIFIED) == EXIT_VERIFIED == 0
    assert verdict_to_exit(Verdict.FALSIFIED) == EXIT_FALSIFIED == 1
    assert verdict_to_exit(Verdict.UNKNOWN) == EXIT_INCONCLUSIVE == 2
    assert verdict_to_exit(Verdict.ERROR) == EXIT_INFRASTRUCTURE == 4
    assert verdict_to_exit("verified") == 0
    assert verdict_to_exit("falsified") == 1
    assert verdict_to_exit(None) == 2
    assert verdict_to_exit("gibberish") == 2
    # the infrastructure flag dominates any verdict
    assert verdict_to_exit(Verdict.VERIFIED, infrastructure=True) == 4
    assert EXIT_USAGE == 3 and EXIT_RETRY_LATER == 75


def test_batch_exit_ladder():
    assert batch_exit({"verified": 3}) == 0
    assert batch_exit({"verified": 3, "falsified": 1}) == 1
    assert batch_exit({"falsified": 1}, infrastructure=2) == 1
    assert batch_exit({"verified": 3}, infrastructure=1) == 4
    assert batch_exit({"verified": 3, "unknown": 1}) == 2
    assert batch_exit({"skipped": 1}) == 2
    assert batch_exit({}) == 2
    # Verdict members hash like their wire strings, so a Counter built
    # from either works.
    assert batch_exit({Verdict.VERIFIED: 2}) == 0


def test_result_exit_covers_service_payloads():
    assert result_exit(None) == EXIT_USAGE
    assert result_exit({"reply": "RETRY_LATER"}) == EXIT_RETRY_LATER
    assert result_exit({"verdict": "verified"}) == 0
    assert result_exit({"verdict": "falsified"}) == 1
    assert result_exit({"verdict": "unknown"}) == 2
    assert result_exit({"verdict": "error"}) == 4
    assert result_exit({"verdict": "error", "infrastructure": True}) == 4
    assert result_exit({"verdict": "verified", "infrastructure": True}) == 4


# --------------------------------------------------------------------
# Round trips: verdict + witness survive JSON intact
# --------------------------------------------------------------------


def _sample_trace() -> Trace:
    return Trace(
        states=[{"r": 0}, {"r": 1}],
        inputs=[{"i": 1}, {"i": 0}],
        circuit_name="sample",
    )


def test_trace_json_round_trip():
    trace = _sample_trace()
    clone = Trace.from_json(json.loads(json.dumps(trace.to_json())))
    assert clone.states == trace.states
    assert clone.inputs == trace.inputs
    assert clone.circuit_name == trace.circuit_name


def test_verify_result_json_round_trip_preserves_verdict_and_witness():
    result = VerifyResult(
        engine="bmc",
        verdict=Verdict.FALSIFIED,
        detail="counterexample at depth 1",
        witness=WITNESS_TRACE,
        trace=_sample_trace(),
        abort=None,
        seconds=0.25,
    )
    payload = json.loads(json.dumps(result.to_json(include_trace=True)))
    clone = VerifyResult.from_json(payload)
    assert clone.verdict is Verdict.FALSIFIED
    assert clone.witness == WITNESS_TRACE
    assert clone.engine == "bmc"
    assert clone.trace.states == result.trace.states
    assert clone.trace.inputs == result.trace.inputs
    assert payload["verdict"] == "falsified"
    assert payload["trace_length"] == 2


def test_verify_result_round_trip_with_abort():
    abort = AbortInfo(engine="bdd", resource="time", detail="deadline")
    result = VerifyResult(
        engine="bdd",
        verdict=Verdict.UNKNOWN,
        detail=abort.describe(),
        abort=abort,
    )
    clone = VerifyResult.from_json(
        json.loads(json.dumps(result.to_json()))
    )
    assert clone.verdict is Verdict.UNKNOWN
    assert clone.abort is not None
    assert clone.abort.resource == "time"


def test_worker_envelope_json_round_trip():
    # A result that came back from a forked worker: its provenance
    # fields (pid, RSS) survive the JSON round trip.
    result = VerifyResult(
        engine="kinduction",
        verdict=Verdict.VERIFIED,
        detail="k-induction at depth 2",
        witness="k-induction",
        trace=None,
        seconds=0.5,
        rss_mb=42.0,
        pid=123,
    )
    payload = json.loads(json.dumps(result.to_json()))
    clone = VerifyResult.from_json(payload)
    assert clone.verdict is Verdict.VERIFIED
    assert clone.witness == "k-induction"
    assert clone.engine == "kinduction"
    assert clone.pid == 123
    assert clone.rss_mb == 42.0
    assert clone.trace is None


def test_worker_envelope_round_trip_carries_trace():
    result = VerifyResult(
        engine="bmc",
        verdict=Verdict.FALSIFIED,
        witness=WITNESS_TRACE,
        trace=_sample_trace(),
        pid=77,
    )
    payload = json.loads(json.dumps(result.to_json(include_trace=True)))
    clone = VerifyResult.from_json(payload)
    assert clone.verdict is Verdict.FALSIFIED
    assert clone.pid == 77
    assert clone.trace.states == result.trace.states
    assert clone.trace.inputs == result.trace.inputs


def test_witness_kinds_are_distinct():
    assert len(set(WITNESS_KINDS)) == len(WITNESS_KINDS)
