"""The racing portfolio executor (first definite verdict wins).

``race`` runs every strategy on the same obligation, each inside its
own budget slice.  Slicing follows one rule: **every strategy gets the
same slice in sequential and parallel mode**.  :func:`budget_slice`
divides the caller's remaining wall clock (and countable SAT/BDD
resources) by the number of strategies once, up front; sequential
execution burns the slices one after another, parallel execution
overlaps them.  That equality is what makes the determinism suite's
"parallel == sequential" contract checkable.

- ``jobs <= 1``: in-process reference mode -- the slices burn one after
  another in :data:`~repro.parallel.worker.STRATEGY_ORDER`, stopping at
  the first definite verdict.  This is the baseline the determinism
  suite compares against.
- ``jobs >= 2``: up to ``jobs`` :class:`~repro.parallel.pool.Worker`
  processes run concurrently; as a worker returns an indefinite result
  the next pending strategy is backfilled into its slot.  The first
  definite result cancels every other worker; losers' slices overlap
  instead of serializing, which is the whole wall-clock win.

Cancellation protocol: each worker sends exactly one
:class:`~repro.engine.VerifyResult` (its "envelope": the strategy's
result plus the worker's ``PERF`` delta, obs records, RSS and pid).  A
worker that dies without one becomes an ERROR envelope.  On a winner
(or ``KeyboardInterrupt``) the parent stops every live worker in a
``finally`` block, so no orphan can outlive the call.

Determinism contract: every strategy is sound, so *which* strategy wins
cannot change the verdict, only the latency.  Falsification witnesses
are normalized in the parent through :func:`canonical_witness` -- a
lexicographically-minimal shortest counterexample recomputed by bounded
model checking -- so the reported trace is also independent of the
winner.  What is *not* preserved in parallel mode: the winning strategy
name, per-strategy timings, and VERIFIED results carry no inductive
invariant (BDD functions cannot cross the pipe).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.property import UnreachabilityProperty
from repro.engine import DisagreeError, Limits, Verdict, VerifyResult, join_all
from repro.kernel.perf import PERF
from repro.mc.bmc import BmcOutcome, bmc
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.parallel import pool
from repro.parallel.worker import STRATEGY_ORDER, run_strategy
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosMonkey
from repro.runtime.supervisor import AbortInfo
from repro.trace import Trace

#: How long a cancelled worker gets between SIGTERM and SIGKILL.
STOP_GRACE = 5.0


def budget_slice(
    budget: Optional[Budget], ways: int
) -> Callable[..., Optional[Budget]]:
    """One of ``ways`` equal slices of ``budget``, sized now, started
    later.

    Wall clock and countable resources (conflicts, BDD nodes) are split
    evenly from what ``budget`` has left at this call; the memory
    watermark is process-level and passes through unchanged.  The
    returned ``start(name, parent=None)`` materializes the slice as a
    fresh :class:`Budget` whose clock starts at that call.  ``parent``
    (in-process sequential mode only) intersects deadlines and
    propagates charges upward; a forked worker passes None since the
    parent lives in another process.  An unlimited slice without a
    parent starts as None, keeping engines on their no-budget fast
    path."""
    ways = max(1, ways)
    caps: Dict[str, Optional[float]] = {}
    if budget is not None:
        remaining = budget.remaining_seconds()
        conflicts = budget.remaining_conflicts()
        caps = {
            "max_seconds": None if remaining is None else remaining / ways,
            "max_conflicts": None if conflicts is None else max(
                1, conflicts // ways
            ),
            "max_bdd_nodes": None if budget.max_bdd_nodes is None else max(
                1, budget.max_bdd_nodes // ways
            ),
            "max_memory_mb": budget.max_memory_mb,
        }
    unlimited = all(cap is None for cap in caps.values())

    def start(
        name: str, parent: Optional[Budget] = None
    ) -> Optional[Budget]:
        if parent is None and unlimited:
            return None
        return Budget(name=name, parent=parent, **caps)

    return start


def _race_worker(send, strategy, circuit, prop, start_slice, chaos) -> None:
    """Body of one forked portfolio worker: start the budget slice (the
    clock starts *here*, when the worker starts running) and send
    exactly one envelope."""
    budget = start_slice(f"portfolio/{strategy}")
    envelope = run_strategy(strategy, circuit, prop, budget, chaos=chaos)
    envelope.perf = PERF.snapshot()
    if obs.TRACER.enabled:
        envelope.obs = obs.TRACER.drain()
    envelope.pid = os.getpid()
    send(envelope)


def canonical_witness(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    witness: Trace,
) -> Trace:
    """Normalize a counterexample to *the* canonical one: shortest depth
    first, then lexicographically minimal under the circuit's signal
    declaration order (the ``bmc`` canonical-trace contract).  Bounded
    by the witness's own length, so the recomputation can never search
    deeper than what some engine already found."""
    result = bmc(
        circuit,
        prop,
        Limits(max_depth=max(0, witness.length - 1)),
        induction=False,
        incremental=False,
        canonical_trace=True,
    )
    if result.outcome is BmcOutcome.FALSE and result.trace is not None:
        return result.trace
    return witness


@dataclass
class PortfolioResult:
    """Outcome of one race."""

    verdict: Verdict
    trace: Optional[Trace] = None
    winner: Optional[str] = None
    jobs: int = 1
    strategies: Tuple[str, ...] = ()
    envelopes: List[VerifyResult] = field(default_factory=list)
    seconds: float = 0.0
    canonical: bool = False
    #: set when two sound strategies answered with contradictory
    #: definite verdicts -- a soundness bug, reported as ERROR
    disagreement: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.verdict is Verdict.VERIFIED

    @property
    def falsified(self) -> bool:
        return self.verdict is Verdict.FALSIFIED

    @property
    def aborts(self) -> List[AbortInfo]:
        return [e.abort for e in self.envelopes if e.abort is not None]

    def envelope_of(self, strategy: str) -> Optional[VerifyResult]:
        for envelope in self.envelopes:
            if envelope.engine == strategy:
                return envelope
        return None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "disagreement": self.disagreement,
            "winner": self.winner,
            "jobs": self.jobs,
            "strategies": list(self.strategies),
            "trace_length": None if self.trace is None else self.trace.length,
            "canonical": self.canonical,
            "seconds": round(self.seconds, 4),
            "envelopes": [e.to_json() for e in self.envelopes],
        }


def _finish(
    result: PortfolioResult,
    circuit: Circuit,
    prop: UnreachabilityProperty,
    winning: Optional[VerifyResult],
    canonicalize: bool,
    start: float,
) -> PortfolioResult:
    if winning is not None:
        result.verdict = winning.verdict
        result.winner = winning.engine
        result.trace = winning.trace
    try:
        # The same fold the fuzz oracle uses for consensus: two sound
        # strategies can never definitely disagree, so a conflict is an
        # infrastructure-grade finding, not a result.
        join_all(e.verdict for e in result.envelopes)
    except DisagreeError as error:
        result.verdict = Verdict.ERROR
        result.disagreement = str(error)
        result.winner = None
        result.trace = None
        result.seconds = time.monotonic() - start
        return result
    if (
        canonicalize
        and result.verdict is Verdict.FALSIFIED
        and result.trace is not None
    ):
        result.trace = canonical_witness(circuit, prop, result.trace)
        result.canonical = True
    result.seconds = time.monotonic() - start
    return result


def race(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    strategies: Sequence[str] = STRATEGY_ORDER,
    jobs: int = 1,
    budget: Optional[Budget] = None,
    chaos: Optional[ChaosMonkey] = None,
    log: Optional[Callable[[str], None]] = None,
    canonicalize: bool = True,
    poll_seconds: float = 0.05,
) -> PortfolioResult:
    """Race ``strategies`` on one obligation; see the module docstring.

    Returns UNKNOWN (never raises a contained error) when no strategy
    reaches a definite verdict within its slice.
    """
    strategies = tuple(strategies)
    start = time.monotonic()
    start_slice = budget_slice(budget, len(strategies))
    result = PortfolioResult(
        verdict=Verdict.UNKNOWN, jobs=max(1, jobs), strategies=strategies
    )
    race_span = obs.span(
        "portfolio.race", jobs=max(1, jobs), strategies=",".join(strategies)
    )

    def finish_race(outcome: PortfolioResult) -> PortfolioResult:
        race_span.set(verdict=outcome.verdict, winner=outcome.winner)
        race_span.__exit__(None, None, None)
        return outcome

    def note(message: str) -> None:
        if log is not None:
            log(message)

    def collect(envelope: VerifyResult) -> None:
        result.envelopes.append(envelope)
        note(
            f"[portfolio] {envelope.engine}: {envelope.verdict} "
            f"({envelope.detail}) in {envelope.seconds:.2f}s"
        )

    if jobs < 2 or pool.fork_context() is None:
        # Sequential reference mode: burn the slices in order.
        winning = None
        for strategy in strategies:
            if budget is not None and budget.expired():
                note(f"[portfolio] parent budget expired before {strategy}")
                break
            envelope = run_strategy(
                strategy,
                circuit,
                prop,
                start_slice(f"portfolio/{strategy}", parent=budget),
                chaos=chaos,
            )
            collect(envelope)
            if envelope.definite:
                winning = envelope
                break
        return finish_race(
            _finish(result, circuit, prop, winning, canonicalize, start)
        )

    pending = list(strategies)
    running = {}  # worker -> strategy
    winning: Optional[VerifyResult] = None

    def launch(strategy: str) -> None:
        worker = pool.Worker(
            _race_worker, strategy, circuit, prop, start_slice, chaos,
            name=f"portfolio-{strategy}",
        )
        running[worker] = strategy
        note(f"[portfolio] worker {worker.pid} racing {strategy}")

    def note_worker_span(worker, strategy: str, outcome: str) -> None:
        # The parent's view of the worker's lifetime, attributed to the
        # worker's pid lane.  This also covers *cancelled* workers, whose
        # own span buffers die with them -- guaranteeing the stitched
        # trace shows every lane that raced.
        obs.TRACER.record_span(
            "portfolio.worker",
            ts=worker.started,
            dur=time.monotonic() - worker.started,
            pid=worker.pid,
            outcome=outcome,
            attrs={"strategy": strategy},
        )

    try:
        while pending and len(running) < jobs:
            launch(pending.pop(0))
        while running and winning is None:
            ready = pool.wait(list(running), timeout=poll_seconds)
            for worker in ready:
                strategy = running.pop(worker)
                envelope = worker.recv()
                if isinstance(envelope, pool.Died):
                    # The worker died without an envelope (hard crash,
                    # kill -9): degrade, don't raise.
                    envelope = VerifyResult(
                        engine=strategy,
                        verdict=Verdict.ERROR,
                        detail=(
                            f"worker exited without a result "
                            f"(exitcode {envelope.exitcode})"
                        ),
                        pid=worker.pid,
                    )
                worker.reap(STOP_GRACE)
                if envelope.perf:
                    PERF.merge(envelope.perf)
                if obs.TRACER.enabled:
                    obs.TRACER.absorb(envelope.obs)
                    note_worker_span(worker, strategy, envelope.verdict)
                collect(envelope)
                if envelope.definite and winning is None:
                    winning = envelope
                elif pending:
                    launch(pending.pop(0))
            if not ready and budget is not None and budget.expired():
                note("[portfolio] parent budget expired; cancelling race")
                break
    finally:
        for worker, strategy in list(running.items()):
            worker.stop(STOP_GRACE)
            if obs.TRACER.enabled:
                note_worker_span(worker, strategy, "cancelled")
        running.clear()

    # Keep the reported envelope order deterministic (strategy order,
    # not completion order).
    order = {name: i for i, name in enumerate(strategies)}
    result.envelopes.sort(key=lambda e: order.get(e.engine, len(order)))
    return finish_race(
        _finish(result, circuit, prop, winning, canonicalize, start)
    )
