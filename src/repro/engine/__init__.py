"""`repro.engine`: the unified engine layer.

One verdict algebra (:class:`Verdict`, with ``join``/``meet`` and the
``DisagreeError`` conflict signal), one result type
(:class:`VerifyResult` -- verdict + witness + trace + abort + perf),
one engine protocol (:class:`Engine` with ``run(circuit, prop, limits)
-> VerifyResult``), one name-keyed :data:`registry`, and one exit-code
ladder (:func:`verdict_to_exit`).  The portfolio, the fuzz oracle, the
verification service and the CLI are all thin consumers of this
package; adding an engine here makes it available everywhere at once.

The adapter module (which drags in every engine implementation) is
loaded lazily on first registry access; importing ``repro.engine``
itself is cheap, which is what lets `core.rfn` use the verdict algebra
without an import cycle.
"""

from repro.engine.base import (
    BOUNDED,
    CAPABILITIES,
    COMPLETE,
    FORMAL,
    HYBRID,
    NEEDS_ABSTRACT_MODEL,
    SIMULATION,
    SOUND_FOR_FALSE,
    SOUND_FOR_TRUE,
    Engine,
    EngineRegistry,
    FunctionEngine,
    registry,
)
from repro.engine.exitcodes import (
    EXIT_FALSIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_INFRASTRUCTURE,
    EXIT_INTERRUPTED,
    EXIT_RETRY_LATER,
    EXIT_USAGE,
    EXIT_VERIFIED,
    batch_exit,
    result_exit,
    verdict_to_exit,
)
from repro.engine.result import (
    WITNESS_ABSTRACT_PROOF,
    WITNESS_EXHAUSTIVE,
    WITNESS_INVARIANT,
    WITNESS_KINDS,
    WITNESS_KINDUCTION,
    WITNESS_TRACE,
    VerifyResult,
)
from repro.engine.verdict import (
    DEFINITE,
    DisagreeError,
    Verdict,
    join_all,
    meet_all,
)
from repro.runtime.budget import Limits

__all__ = [
    "BOUNDED",
    "CAPABILITIES",
    "COMPLETE",
    "DEFINITE",
    "DisagreeError",
    "Engine",
    "EngineRegistry",
    "EXIT_FALSIFIED",
    "EXIT_INCONCLUSIVE",
    "EXIT_INFRASTRUCTURE",
    "EXIT_INTERRUPTED",
    "EXIT_RETRY_LATER",
    "EXIT_USAGE",
    "EXIT_VERIFIED",
    "FORMAL",
    "FunctionEngine",
    "HYBRID",
    "Limits",
    "NEEDS_ABSTRACT_MODEL",
    "SIMULATION",
    "SOUND_FOR_FALSE",
    "SOUND_FOR_TRUE",
    "Verdict",
    "VerifyResult",
    "WITNESS_ABSTRACT_PROOF",
    "WITNESS_EXHAUSTIVE",
    "WITNESS_INVARIANT",
    "WITNESS_KINDS",
    "WITNESS_KINDUCTION",
    "WITNESS_TRACE",
    "batch_exit",
    "join_all",
    "meet_all",
    "registry",
    "result_exit",
    "verdict_to_exit",
]
