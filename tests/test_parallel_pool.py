"""The worker-process primitive (:mod:`repro.parallel.pool`).

The portfolio race, the sharded map and the service daemon all stop
their workers through :meth:`Worker.stop`; the race, shard and daemon
suites cover the SIGTERM path, and this test covers the escalation to
SIGKILL for a worker that ignores SIGTERM.
"""

import os
import signal
import time

import pytest

from repro.parallel import pool

pytestmark = pytest.mark.skipif(
    pool.fork_context() is None, reason="the pool requires fork"
)


def _ignore_sigterm_and_sleep(send):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    send("ready")
    time.sleep(60.0)


def test_stop_escalates_to_sigkill_when_sigterm_is_ignored():
    worker = pool.Worker(_ignore_sigterm_and_sleep)
    assert pool.wait([worker], timeout=30.0) == [worker]
    assert worker.recv() == "ready"
    assert worker.stop(0.5) == "sigkill"
    assert not worker.process.is_alive()
    with pytest.raises(ProcessLookupError):
        os.kill(worker.pid, 0)
