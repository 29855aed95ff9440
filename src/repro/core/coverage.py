"""Unreachable-coverage-state analysis (Section 3, Table 2).

Given a set of *coverage signals* (register outputs encoding control state
machines), a coverage state is one valuation of those signals.  The goal
is to identify as many coverage states as possible that are unreachable on
the *original* design.

RFN mode (the paper's adaptation of the CEGAR loop):

- Step 2: run the forward fixpoint on the abstract model and project it to
  the coverage signals; coverage states outside the projection are
  unreachable (abstract models over-approximate, so this is sound).
- Pick undetermined coverage states still inside the projection, build an
  abstract error trace toward them with the hybrid engine, and try guided
  sequential ATPG on the original design; if a concrete trace is found,
  every state along it *marks* its coverage projection as reachable.
- Step 4: refine the abstraction from the abstract trace and iterate; the
  still-undetermined coverage states are the next iteration's targets.

Coverage-state sets are kept **symbolically** (a dedicated little BDD
manager over just the coverage signals): the paper's USB2 set has 21
signals, i.e. two million coverage states, far too many to enumerate.
Sets move between that manager and each iteration's model-checking
manager with :meth:`repro.bdd.BDD.transfer`, a walk over the source's
nodes rather than an enumeration of its cubes.

The BFS baseline of [8] lives in :mod:`repro.core.bfs_abstraction`;
:func:`bfs_coverage_analysis` runs its single fixpoint and projection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bdd import BDD, Function
from repro.core.abstraction import Abstraction
from repro.core.bfs_abstraction import bfs_abstract_model
from repro.core.guided import guided_concrete_search
from repro.core.hybrid import HybridEngineError, HybridTraceEngine
from repro.core.property import UnreachabilityProperty
from repro.core.refine import refine_from_trace
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import (
    DEFAULT_MAX_NODES,
    ReachOutcome,
    ReachResult,
    forward_reach,
)
from repro.netlist.circuit import Circuit, NetlistError
from repro.obs import tracer as obs
from repro.runtime.budget import Limits
from repro.sim.random_sim import RandomSimulator

CoverageState = Tuple[int, ...]


@dataclass
class CoverageConfig:
    max_iterations: int = 32
    max_seconds: Optional[float] = None
    #: fixpoint caps
    reach_limits: Limits = field(
        default_factory=lambda: Limits(max_bdd_nodes=DEFAULT_MAX_NODES)
    )
    #: hybrid-engine and trace-concretization ATPG caps
    atpg_limits: Limits = field(
        default_factory=lambda: Limits(max_conflicts=100_000)
    )
    #: refinement-probe caps
    refine_limits: Limits = field(
        default_factory=lambda: Limits(max_conflicts=50_000)
    )
    # Bit-parallel random simulation on the original design before the
    # CEGAR loop: every coverage state a concrete run visits is marked
    # reachable up front (sound -- the run is real), shrinking the
    # undetermined set the expensive trace machinery must chase.  One
    # lane per run; 0 lanes disables the pre-pass.
    presim_lanes: int = 64
    presim_cycles: int = 64
    presim_seed: int = 0
    log: Optional[callable] = None


@dataclass
class CoverageSets:
    """Symbolic coverage-state sets over a private little BDD manager."""

    signals: List[str]
    bdd: BDD = field(init=False)
    unreachable: Function = field(init=False)
    reachable: Function = field(init=False)
    undetermined: Function = field(init=False)

    def __post_init__(self) -> None:
        self.bdd = BDD(self.signals)
        self.unreachable = self.bdd.false
        self.reachable = self.bdd.false
        self.undetermined = self.bdd.true

    def count(self, fn: Function) -> int:
        return self.bdd.sat_count(fn, nvars=len(self.signals))

    def mark_reachable(self, states: Iterable[Dict[str, int]]) -> int:
        """Mark concretely visited coverage states (full assignments to
        the signals) reachable: OR them into one set, then update the
        reachable and undetermined sets once.  Returns how many distinct
        states were not marked before."""
        visited = self.bdd.false
        for state in states:
            visited = visited | self.bdd.cube(state)
        marked = self.count(visited - self.reachable)
        self.reachable = self.reachable | visited
        self.undetermined = self.undetermined - visited
        return marked

    def states(self, fn: Function) -> Iterator[CoverageState]:
        """Explicit enumeration (use only for small signal sets)."""
        return self.bdd.project_states(fn, self.signals)


@dataclass
class CoverageResult:
    signals: List[str]
    sets: CoverageSets
    iterations: int = 0
    model_registers: int = 0
    seconds: float = 0.0
    fixpoints: int = 0
    traces_found: int = 0
    presim_marked: int = 0
    # The ``max_seconds`` cap stopped the run before it finished; the
    # sets are then only as far as the run got.
    timed_out: bool = False

    @property
    def num_unreachable(self) -> int:
        return self.sets.count(self.sets.unreachable)

    @property
    def num_reachable_marked(self) -> int:
        return self.sets.count(self.sets.reachable)

    @property
    def num_undetermined(self) -> int:
        return self.sets.count(self.sets.undetermined)

    def unreachable_states(self) -> Set[CoverageState]:
        return set(self.sets.states(self.sets.unreachable))


class CoverageAnalyzer:
    """RFN-based unreachable-coverage-state analysis."""

    def __init__(
        self,
        circuit: Circuit,
        coverage_signals: Sequence[str],
        config: Optional[CoverageConfig] = None,
    ) -> None:
        for sig in coverage_signals:
            if not circuit.is_register_output(sig):
                raise NetlistError(
                    f"coverage signal {sig!r} must be a register output"
                )
        self.circuit = circuit
        self.signals = list(coverage_signals)
        self.config = config or CoverageConfig()
        # Seed the abstraction with the coverage registers themselves.
        self.abstraction = Abstraction(
            original=circuit,
            prop=UnreachabilityProperty(
                "coverage", {sig: 1 for sig in self.signals}
            ),
            kept_registers=set(self.signals),
        )

    def _log(self, message: str) -> None:
        if self.config.log is not None:
            self.config.log(message)

    # ------------------------------------------------------------------

    def run(self) -> CoverageResult:
        config = self.config
        start = time.monotonic()
        sets = CoverageSets(list(self.signals))
        result = CoverageResult(signals=list(self.signals), sets=sets)

        def out_of_time() -> bool:
            if config.max_seconds is not None and (
                time.monotonic() - start > config.max_seconds
            ):
                result.timed_out = True
            return result.timed_out

        if config.presim_lanes > 0 and not out_of_time():
            with obs.span("coverage.presim"):
                result.presim_marked = self._presimulate(sets)
            self._log(
                f"[cov presim] {result.presim_marked} coverage states "
                f"marked reachable by {config.presim_lanes}-lane random "
                f"simulation"
            )

        for iteration in range(1, config.max_iterations + 1):
            if sets.undetermined.is_false or out_of_time():
                break
            result.iterations = iteration
            model = self.abstraction.model
            self._log(
                f"[cov iter {iteration}] model {model.num_registers} regs, "
                f"{result.num_undetermined} undetermined states"
            )
            encoding = SymbolicEncoding(model)
            images = ImageComputer(encoding)
            reach = forward_reach(
                images,
                encoding.initial_states(),
                target=None,
                limits=config.reach_limits,
            )
            if reach.outcome is not ReachOutcome.FIXPOINT:
                self._log("[cov] fixpoint resource-out; stopping")
                break
            result.fixpoints += 1
            others = [
                name
                for name in encoding.bdd.var_order()
                if name not in set(self.signals)
            ]
            with obs.span("coverage.project"):
                projection = sets.bdd.transfer(
                    encoding.bdd.exists(others, reach.reached)
                )
            newly_unreachable = sets.undetermined - projection
            sets.unreachable = sets.unreachable | newly_unreachable
            sets.undetermined = sets.undetermined & projection
            self._log(
                f"[cov iter {iteration}] +{sets.count(newly_unreachable)} "
                f"unreachable ({result.num_unreachable} total)"
            )
            if sets.undetermined.is_false or out_of_time():
                break

            # Build an abstract trace toward some undetermined state.
            with obs.span("coverage.target"):
                target = encoding.bdd.transfer(sets.undetermined)
            hit = self._earliest_hit(reach, target)
            if hit is None:
                break  # cannot happen while projection overlaps
            synthetic = ReachResult(
                outcome=ReachOutcome.TARGET_HIT,
                reached=reach.reached,
                rings=reach.rings[: hit + 1],
                iterations=hit,
                hit_ring=hit,
            )
            try:
                hybrid = HybridTraceEngine(
                    model, encoding, images, atpg_limits=config.atpg_limits
                )
                abstract_trace = hybrid.build_trace(synthetic, target)
            except HybridEngineError as error:
                self._log(f"[cov] hybrid engine failed: {error}")
                break

            # Step 3: concretize; mark visited coverage states reachable.
            marked = 0
            final_cube = {
                sig: abstract_trace.states[-1][sig]
                for sig in self.signals
                if sig in abstract_trace.states[-1]
            }
            if final_cube:
                prop = UnreachabilityProperty(
                    f"cov_state_{iteration}", final_cube
                )
                guided = guided_concrete_search(
                    self.circuit,
                    prop,
                    [abstract_trace],
                    limits=config.atpg_limits,
                )
                if guided.found:
                    result.traces_found += 1
                    marked = self._mark_reachable(guided.trace, sets)
                    self._log(
                        f"[cov iter {iteration}] marked {marked} reachable"
                    )

            # Step 4: refine from the abstract trace.
            refinement = refine_from_trace(
                self.abstraction,
                abstract_trace,
                limits=config.refine_limits,
            )
            added = self.abstraction.refine(refinement.registers)
            if added == 0:
                frequency = abstract_trace.assigned_signals()
                fallback = [
                    reg
                    for reg in self.abstraction.pseudo_input_registers()
                    if reg in frequency
                ]
                if self.abstraction.refine(fallback) == 0:
                    if marked > 0:
                        # The trace only re-visited now-marked states; the
                        # next iteration targets the shrunken set.
                        continue
                    self._log("[cov] refinement stuck; stopping")
                    break

        result.model_registers = len(self.abstraction.kept_registers)
        result.seconds = time.monotonic() - start
        return result

    # ------------------------------------------------------------------

    def _presimulate(self, sets: CoverageSets) -> int:
        """Mark coverage states visited by bit-parallel random simulation
        of the original design as reachable (Section 3: "mark the reached
        coverage states").  Returns the number of distinct states marked."""
        config = self.config
        sampler = RandomSimulator(self.circuit, seed=config.presim_seed)
        visited = sampler.sample_reachable_projections(
            self.signals, runs=config.presim_lanes, cycles=config.presim_cycles
        )
        return sets.mark_reachable(
            dict(zip(self.signals, state)) for state in visited
        )

    @staticmethod
    def _earliest_hit(reach: ReachResult, target: Function) -> Optional[int]:
        for index, ring in enumerate(reach.rings):
            if not (ring & target).is_false:
                return index
        return None

    def _mark_reachable(self, trace, sets: CoverageSets) -> int:
        return sets.mark_reachable(
            {sig: state[sig] for sig in self.signals}
            for state in trace.states
            if all(sig in state for sig in self.signals)
        )


@dataclass
class BfsCoverageResult:
    signals: List[str]
    sets: CoverageSets
    model_registers: int = 0
    seconds: float = 0.0
    completed: bool = False

    @property
    def num_unreachable(self) -> int:
        return self.sets.count(self.sets.unreachable)

    def unreachable_states(self) -> Set[CoverageState]:
        return set(self.sets.states(self.sets.unreachable))


def bfs_coverage_analysis(
    circuit: Circuit,
    coverage_signals: Sequence[str],
    k: int = 60,
    limits: Optional[Limits] = None,
) -> BfsCoverageResult:
    """The BFS baseline [8]: one fixpoint on the k-closest-register model,
    projected onto the coverage signals."""
    start = time.monotonic()
    signals = list(coverage_signals)
    sets = CoverageSets(list(signals))
    result = BfsCoverageResult(signals=list(signals), sets=sets)
    bfs = bfs_abstract_model(circuit, signals, k)
    result.model_registers = bfs.model.num_registers
    encoding = SymbolicEncoding(bfs.model)
    images = ImageComputer(encoding)
    reach = forward_reach(
        images, encoding.initial_states(), target=None, limits=limits
    )
    if reach.outcome is ReachOutcome.FIXPOINT:
        others = [
            name
            for name in encoding.bdd.var_order()
            if name not in set(signals)
        ]
        projection = sets.bdd.transfer(
            encoding.bdd.exists(others, reach.reached)
        )
        sets.unreachable = ~projection
        sets.undetermined = projection
        result.completed = True
    result.seconds = time.monotonic() - start
    return result
