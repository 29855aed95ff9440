"""Per-layer timing by wrapping each layer's public functions at the
sites that call them.

The program is not modified: :class:`LayerTimer` replaces a name in the
module (or the method on the class) that a caller resolves at run time
with a wrapper, and restores the original on :meth:`LayerTimer.uninstall`.
Each wrapper opens a ``repro.obs`` span named ``bench.<layer>`` -- so a
traced run's spans sit in the same v1 trace as the program's own -- and
keeps a stack of open layer frames so that a layer's *self* time is its
wall time minus the wall time of the wrapped calls nested inside it
(e.g. a solver-session build inside sequential ATPG inside refinement
minimisation counts once, in the innermost layer).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer).  The attribute path is a function
#: name in the module that calls it, or ``Class.method``.
CALL_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.rfn", "RFN.run", "core.rfn"),
    ("repro.core.coverage", "CoverageAnalyzer.run", "core.coverage"),
    ("repro.core.rfn", "forward_reach", "mc.reach"),
    ("repro.core.coverage", "forward_reach", "mc.reach"),
    ("repro.engine.adapters", "forward_reach", "mc.reach"),
    ("repro.core.guided", "sequential_atpg", "atpg.sequential"),
    ("repro.core.refine", "sequential_atpg", "atpg.sequential"),
    ("repro.engine.adapters", "sequential_atpg", "atpg.sequential"),
    ("repro.core.hybrid", "combinational_atpg", "atpg.combinational"),
    ("repro.atpg.engine", "solver_session", "kernel.scache.session"),
    ("repro.mc.bmc", "solver_session", "kernel.scache.session"),
    ("repro.core.certify", "solver_session", "kernel.scache.session"),
    ("repro.sat.solver", "Solver.solve", "sat.solve"),
    ("repro.core.rfn", "crucial_register_candidates", "core.refine.phase1"),
    ("repro.core.refine", "crucial_register_candidates",
     "core.refine.phase1"),
    ("repro.core.refine", "minimize_candidates", "core.refine.phase2"),
    ("repro.core.refine", "trace_satisfiable_on", "core.refine.probe"),
    ("repro.core.refine", "BitParallelSimulator.evaluate", "kernel.replay"),
    ("repro.core.rfn", "guided_concrete_search", "core.guided"),
    ("repro.core.coverage", "guided_concrete_search", "core.guided"),
    ("repro.core.hybrid", "HybridTraceEngine.build_trace", "core.hybrid"),
    ("repro.core.hybrid", "min_cut_design", "mincut"),
    ("repro.sim.random_sim", "RandomSimulator.sample_reachable_projections",
     "sim.presim"),
    ("repro.parallel.portfolio", "canonical_witness",
     "parallel.canonical_witness"),
)

#: Class bindings that are shared by callers outside the measured call
#: site; these get a per-site subclass so only that site is timed.
_PER_SITE_CLASSES = {("repro.core.refine", "BitParallelSimulator")}

_ABSENT = object()


class LayerTimer:
    """Accumulates per-layer self time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._hooks: Dict[str, Callable] = {}

    # -- measurement ----------------------------------------------------

    def timed(self, layer: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped as one call of ``layer``."""
        from repro.obs import tracer as obs

        span_name = f"bench.{layer}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # wall time of nested wrapped calls
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                with obs.span(span_name):
                    result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.self_s[layer] += elapsed - frame[0]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def on_result(self, layer: str, hook: Callable) -> None:
        """Call ``hook(result, *args, **kwargs)`` after each call of
        ``layer`` (register before :meth:`install`)."""
        self._hooks[layer] = hook

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # vars(): a method inherited by a per-site subclass is absent
        # there, and restoring then means deleting the override.
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self, sites=CALL_SITES) -> None:
        for module_name, path, layer in sites:
            module = importlib.import_module(module_name)
            hook = self._hooks.get(layer)
            if "." not in path:
                self._patch(module, path,
                            self.timed(layer, getattr(module, path), hook))
                continue
            class_name, method = path.split(".")
            cls = getattr(module, class_name)
            if (module_name, class_name) in _PER_SITE_CLASSES:
                cls = type(cls.__name__, (cls,), {})
                self._patch(module, class_name, cls)
            original = getattr(cls, method)
            self._patch(cls, method, self.timed(layer, original, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
