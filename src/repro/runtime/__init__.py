"""repro.runtime -- the resilience layer.

Unified budgets with cooperative deadlines and the one ``Limits``
envelope every engine call takes (:mod:`~repro.runtime.budget`),
a structured abort taxonomy (:mod:`~repro.runtime.abort`), the portfolio
supervisor with retry/fallback (:mod:`~repro.runtime.supervisor`),
CEGAR checkpoint/resume (:mod:`~repro.runtime.checkpoint`), and the
deterministic fault-injection harness (:mod:`~repro.runtime.chaos`).

This package is deliberately dependency-free within the repro: nothing
here imports the engines, so every engine can import the runtime.
"""

from repro.runtime.abort import (
    ABORT_BY_RESOURCE,
    ConflictsOut,
    DecisionsOut,
    DepthOut,
    EngineAbort,
    InjectedFault,
    MemoryOut,
    NodesOut,
    Timeout,
)
from repro.runtime.budget import Budget, Limits, process_rss_mb
from repro.runtime.chaos import (
    ALL_FAULTS,
    FAULTS,
    PROCESS_FAULTS,
    ChaosError,
    ChaosMonkey,
    Garbage,
)
from repro.runtime.fsio import atomic_write_text, fsync_dir
from repro.runtime.checkpoint import CHECKPOINT_VERSION, RfnCheckpoint
from repro.runtime.supervisor import (
    CONTAINED,
    AbortInfo,
    StepResult,
    Supervisor,
)

__all__ = [
    "ABORT_BY_RESOURCE",
    "ALL_FAULTS",
    "AbortInfo",
    "Budget",
    "CHECKPOINT_VERSION",
    "CONTAINED",
    "ChaosError",
    "ChaosMonkey",
    "ConflictsOut",
    "DecisionsOut",
    "DepthOut",
    "EngineAbort",
    "FAULTS",
    "Garbage",
    "InjectedFault",
    "Limits",
    "MemoryOut",
    "NodesOut",
    "PROCESS_FAULTS",
    "RfnCheckpoint",
    "StepResult",
    "Supervisor",
    "Timeout",
    "atomic_write_text",
    "fsync_dir",
    "process_rss_mb",
]
