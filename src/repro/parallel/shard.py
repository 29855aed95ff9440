"""Ordered sharded map over forked workers.

``shard_map`` is the parallel primitive behind ``repro fuzz --jobs`` and
``repro batch``: apply ``fn`` to every item, at most ``jobs`` at a time,
each item in its own forked process, and return results **in item
order** regardless of completion order.  That ordering rule is what
keeps sharded runs byte-comparable with sequential ones: downstream
consumers (campaign merging, batch reports) never observe scheduling.

Item isolation is total -- a segfaulting or OOM-killed item surfaces as
a :class:`ShardError` entry in its own slot, not a dead pool.  With
``jobs <= 1``, a single item, or no ``fork`` start method, the map runs
in-process (plain loop), so callers treat parallelism as optional.

A ``deadline`` (absolute ``time.monotonic()`` instant) stops the map
early: running workers past the deadline are cancelled and their slots
-- plus all unlaunched ones -- are filled with ``skipped``.  On
``KeyboardInterrupt`` every worker is terminated and joined before the
interrupt propagates, so Ctrl-C never leaks processes.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, List, Optional, Sequence

from repro.obs import tracer as obs
from repro.parallel import pool

#: How long a cancelled worker gets between SIGTERM and SIGKILL.
STOP_GRACE = 5.0


class ShardError(RuntimeError):
    """An item's worker raised (or died); carries the child traceback."""


#: Slot marker for items never run because the deadline hit first.
SKIPPED = "skipped"


def _shard_worker(send, fn, item) -> None:
    def trace_records() -> list:
        return obs.TRACER.drain() if obs.TRACER.enabled else []

    try:
        with obs.span("shard.item"):
            value = fn(item)
        send(("ok", value, trace_records()))
    except Exception as error:
        try:
            send(
                (
                    "error",
                    f"{error}\n{traceback.format_exc()}",
                    trace_records(),
                )
            )
        except Exception:  # unpicklable error detail: ship text only
            send(("error", traceback.format_exc(), trace_records()))


def _run_inline(
    fn: Callable, items: Sequence, deadline: Optional[float]
) -> List:
    results: List = []
    for item in items:
        if deadline is not None and time.monotonic() >= deadline:
            results.append(SKIPPED)
            continue
        results.append(fn(item))
    return results


def shard_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    deadline: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    poll_seconds: float = 0.05,
) -> List:
    """Ordered parallel map (see module docstring).

    Each result slot holds the item's return value, a :class:`ShardError`
    (worker raised or died), or the :data:`SKIPPED` marker (deadline).
    Errors are returned, not raised, so one bad item cannot hide the
    other shards' results; callers decide whether to re-raise.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1 or pool.fork_context() is None:
        return _run_inline(fn, items, deadline)

    results: List = [SKIPPED] * len(items)
    next_index = 0
    running = {}  # worker -> item index

    def note(message: str) -> None:
        if log is not None:
            log(message)

    def launch() -> None:
        nonlocal next_index
        index = next_index
        next_index += 1
        worker = pool.Worker(
            _shard_worker, fn, items[index], name=f"shard-{index}"
        )
        running[worker] = index

    try:
        while next_index < len(items) and len(running) < jobs:
            launch()
        while running:
            if deadline is not None and time.monotonic() >= deadline:
                note(f"[shard] deadline hit with {len(running)} running")
                break
            for worker in pool.wait(list(running), timeout=poll_seconds):
                index = running.pop(worker)
                message = worker.recv()
                if isinstance(message, pool.Died):
                    status, payload = "error", (
                        f"shard worker for item {index} died "
                        f"(exitcode {message.exitcode})"
                    )
                else:
                    status, payload, records = message
                    obs.TRACER.absorb(records)
                worker.reap(STOP_GRACE)
                results[index] = (
                    payload if status == "ok" else ShardError(payload)
                )
                if next_index < len(items) and (
                    deadline is None or time.monotonic() < deadline
                ):
                    launch()
    finally:
        for worker in running:
            worker.stop(STOP_GRACE)
        running.clear()
    return results
