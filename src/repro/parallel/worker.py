"""Portfolio strategies and how one strategy runs.

Each strategy is an engine resolved from :data:`repro.engine.registry`
by name; all the default entries are *sound*: a definite verdict
(``verified``/``falsified``) is correct no matter which strategy
produced it, which is what licenses the race's first-definite-wins
cancellation.  The default race order is

- ``bdd``        -- BDD forward reachability on the COI reduction
  (complete; slow when the reachable set is large),
- ``rfn``        -- the full abstraction-refinement CEGAR loop,
- ``kinduction`` -- k-induction with simple-path constraints (complete
  at the recurrence diameter; instant on inductive properties),
- ``bmc``        -- plain bounded search (falsification specialist:
  never answers ``verified``).

:func:`run_strategy` runs a strategy through :meth:`Engine.run`, so a
blown-up strategy degrades exactly like any engine does (contained
aborts to UNKNOWN + :class:`AbortInfo`, crashes to ERROR) instead of
crashing the pool.  It adds only the chaos injection sites (the site
name is the strategy name) and the ``strategy.<name>`` span.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.core.property import UnreachabilityProperty
from repro.engine import FunctionEngine, Limits, VerifyResult, registry
from repro.engine.base import EngineBody
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.runtime.abort import InjectedFault
from repro.runtime.budget import Budget, process_rss_mb
from repro.runtime.chaos import ChaosMonkey, Garbage

#: Default race order: the paper's engine preference (exact reachability
#: first, then the CEGAR loop, then the SAT engines).  In sequential
#: mode this is the order the slices burn in; in parallel mode it only
#: breaks ties for scheduling.
STRATEGY_ORDER: Tuple[str, ...] = ("bdd", "rfn", "kinduction", "bmc")


def run_strategy(
    strategy: str,
    circuit: Circuit,
    prop: UnreachabilityProperty,
    budget: Optional[Budget] = None,
    chaos: Optional[ChaosMonkey] = None,
    fn: Optional[EngineBody] = None,
) -> VerifyResult:
    """Run one strategy; never raises short of ``KeyboardInterrupt``.
    The result's ``engine`` is the strategy name.  The chaos site name
    is the strategy name, so ``--chaos bdd=timeout`` breaks the bdd
    worker exactly like it breaks an in-process supervised step.
    ``fn`` substitutes the strategy body (an :data:`EngineBody`) while
    keeping the name, containment and chaos site -- the service layer
    uses this to run ``rfn`` with checkpoint/resume wired in."""

    def body(circuit, prop, limits) -> VerifyResult:
        if chaos is not None:
            chaos.before(strategy)
        if fn is None:
            result = registry.get(strategy).run(
                circuit, prop, limits, contain=False
            )
        else:
            result = fn(circuit, prop, limits)
        if chaos is not None:
            mangled = chaos.mangle(strategy, result.verdict)
            if isinstance(mangled, Garbage):
                raise InjectedFault(
                    f"garbage verdict from {strategy!r}", engine=strategy
                )
            result.verdict = mangled
        return result

    start = time.perf_counter()
    with obs.span(f"strategy.{strategy}") as phase:
        result = FunctionEngine(strategy, body).run(
            circuit, prop, Limits(budget=budget)
        )
        phase.set(verdict=result.verdict, detail=result.detail)
    result.engine = strategy
    # Proof artifacts are process-local (BDD nodes cannot cross a worker
    # pipe) and would pin the engine's BDD manager: a strategy result
    # never carries them.
    result.invariant = result.invariant_encoding = None
    result.seconds = time.perf_counter() - start
    result.rss_mb = process_rss_mb()
    return result
