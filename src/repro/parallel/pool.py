"""The worker-process primitive: fork, pipe, wait, stop.

Every forked worker in ``repro`` -- the portfolio race, the sharded map
and the service daemon -- is a :class:`Worker`.  This module is the
only place that forks, pipes, waits and reaps; each caller layers its
own protocol on top (first-definite-wins with backfill, ordered slots
with a deadline, strategy/envelope/result messages with a heartbeat)
and the pool never branches on which caller it serves.

Lifecycle of one worker:

- ``Worker(target, *args)`` forks a daemonic child.  The child resets
  SIGTERM/SIGINT to ``SIG_DFL`` (a parent's drain handler must not
  survive the fork: a stop request has to kill), resets ``PERF`` so its
  snapshot is this worker's delta, detaches the obs tracer from the
  parent's sink, then runs ``target(send, *args)``.  ``send`` pickles
  one message onto the pipe; if the parent has gone, the child exits
  quietly.  The parent closes the child's pipe end at once, so a dead
  child is an EOF on the parent's end.
- :func:`wait` blocks until some workers have a message (or died).
- :meth:`Worker.recv` returns the next message, or a :class:`Died`
  value (with the exit code, valid after the join) once the pipe hits
  EOF.
- :meth:`Worker.stop` is the SIGTERM -> grace -> SIGKILL escalation:
  a worker stuck in an uninterruptible syscall cannot dodge it.
  :meth:`Worker.reap` first waits ``grace`` for a worker that has sent
  its last message to exit on its own.  Both close the pipe.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.kernel.perf import PERF
from repro.obs import tracer as obs


def fork_context():
    """The fork start context, or None when the platform lacks it
    (callers then run in-process)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return None


@dataclass(frozen=True)
class Died:
    """What :meth:`Worker.recv` returns for a worker that exited without
    another message (hard crash, ``os._exit``, SIGKILL)."""

    exitcode: Optional[int]


def _child(target: Callable, conn, args: tuple) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    PERF.reset()
    # Drop the inherited sink/ring: this child's records travel home in
    # its messages, not through the parent's file handle.
    obs.TRACER.fork_child()

    def send(message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # the parent is gone
            os._exit(0)

    target(send, *args)
    conn.close()


class Worker:
    """One forked worker and the parent's end of its pipe."""

    def __init__(
        self, target: Callable, *args, name: Optional[str] = None
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_child,
            args=(target, child_conn, args),
            name=name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the child owns its end now
        self.pid: int = self.process.pid
        self.started = time.monotonic()

    def recv(self):
        """The next message, or :class:`Died` once the pipe is at EOF."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self.process.join()  # exitcode is only valid after the join
            self.conn.close()
            return Died(self.process.exitcode)

    def stop(self, grace: float) -> str:
        """SIGTERM -> ``grace`` -> SIGKILL.  Returns how the worker died:
        ``"sigterm"``, ``"sigkill"``, or ``"dead"`` when it had already
        exited.  Idempotent."""
        process = self.process
        how = "dead"
        if process.is_alive():
            process.terminate()  # workers run SIG_DFL, so this kills
            process.join(timeout=grace)
            how = "sigterm"
            if process.is_alive():
                process.kill()  # cannot be caught, blocked, or ignored
                process.join(timeout=grace)
                how = "sigkill"
        else:
            process.join()
        self.conn.close()
        return how

    def reap(self, grace: float) -> str:
        """Stop a worker that has sent its last message, after giving it
        ``grace`` seconds to exit on its own."""
        self.process.join(timeout=grace)
        return self.stop(grace)


def wait(workers: Sequence[Worker], timeout: Optional[float]) -> List[Worker]:
    """The workers with a message (or EOF) pending, waiting at most
    ``timeout`` seconds for the first."""
    by_conn = {worker.conn: worker for worker in workers}
    ready = multiprocessing.connection.wait(list(by_conn), timeout=timeout)
    return [by_conn[conn] for conn in ready]
