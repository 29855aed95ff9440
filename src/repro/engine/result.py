"""`VerifyResult`: the one answer every engine gives to a
``run(circuit, prop, limits)`` request (``Limits`` lives in
:mod:`repro.runtime.budget`, next to the ``Budget`` it carries).

``VerifyResult`` is the complete, self-describing answer: the canonical
:class:`~repro.engine.verdict.Verdict`, a witness kind naming *why* the
verdict can be trusted, the counterexample trace when falsified, the
contained :class:`AbortInfo` when the engine hit a resource wall, the
engine's ``PERF`` snapshot and wall-clock seconds, and -- for a result
that came back from a forked worker -- the worker's obs records, RSS
and pid.  Both directions of JSON conversion are provided so results
survive the journal, the result files and the worker pipe without a
per-layer serialization dialect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.verdict import Verdict
from repro.runtime.supervisor import AbortInfo
from repro.trace import Trace

#: Witness kinds: what a definite verdict offers as evidence.
WITNESS_TRACE = "trace"                    #: concrete counterexample
WITNESS_KINDUCTION = "k-induction"         #: inductive strengthening by depth
WITNESS_INVARIANT = "inductive-invariant"  #: reachable-set fixpoint
WITNESS_EXHAUSTIVE = "exhaustive-search"   #: full explicit state sweep
WITNESS_ABSTRACT_PROOF = "abstract-proof"  #: proof on a sound abstraction

WITNESS_KINDS = (
    WITNESS_TRACE,
    WITNESS_KINDUCTION,
    WITNESS_INVARIANT,
    WITNESS_EXHAUSTIVE,
    WITNESS_ABSTRACT_PROOF,
)


@dataclass
class VerifyResult:
    """One engine's complete answer to one verification instance."""

    engine: str
    verdict: Verdict = Verdict.UNKNOWN
    detail: str = ""
    #: witness kind (one of ``WITNESS_KINDS``) for definite verdicts;
    #: None when there is nothing to certify (unknown/error).
    witness: Optional[str] = None
    trace: Optional[Trace] = None
    abort: Optional[AbortInfo] = None
    seconds: float = 0.0
    perf: Dict[str, object] = field(default_factory=dict)
    #: Worker provenance, set only for results that crossed a worker
    #: pipe: the worker's drained obs trace records (the parent absorbs
    #: them into its stitched trace), its RSS and its pid.  In-process
    #: runs leave them empty -- their spans land in the parent's tracer
    #: directly.
    obs: List[dict] = field(default_factory=list)
    rss_mb: Optional[float] = None
    pid: Optional[int] = None
    #: Process-local proof artifacts (BDD function + encoding for an
    #: inductive-invariant witness).  Never serialized -- BDD nodes do
    #: not cross process boundaries; certification happens in-process.
    invariant: Optional[object] = None
    invariant_encoding: Optional[object] = None

    @property
    def definite(self) -> bool:
        return self.verdict.definite

    @property
    def verified(self) -> bool:
        return self.verdict is Verdict.VERIFIED

    @property
    def falsified(self) -> bool:
        return self.verdict is Verdict.FALSIFIED

    def to_json(self, include_trace: bool = False) -> dict:
        payload = {
            "engine": self.engine,
            "verdict": self.verdict.value,
            "detail": self.detail,
            "witness": self.witness,
            "trace_length": None if self.trace is None else self.trace.length,
            "abort": None if self.abort is None else self.abort.to_json(),
            "seconds": round(self.seconds, 4),
            "rss_mb": None if self.rss_mb is None else round(self.rss_mb, 1),
            "pid": self.pid,
        }
        if include_trace and self.trace is not None:
            payload["trace"] = self.trace.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "VerifyResult":
        """Rebuild a result from :meth:`to_json` output (perf, obs and
        the process-local proof artifacts are not resurrected)."""
        trace = payload.get("trace")
        abort = payload.get("abort")
        return cls(
            engine=payload["engine"],
            verdict=Verdict(payload.get("verdict", "unknown")),
            detail=payload.get("detail", ""),
            witness=payload.get("witness"),
            trace=None if trace is None else Trace.from_json(trace),
            abort=None if abort is None else AbortInfo(**abort),
            seconds=payload.get("seconds", 0.0),
            rss_mb=payload.get("rss_mb"),
            pid=payload.get("pid"),
        )
