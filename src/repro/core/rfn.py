"""The RFN abstraction-refinement loop (Sections 1-2).

Iterates the four steps until the property is verified on an abstract
model (then it holds on the original design, since abstract models are
subcircuits), falsified on the original design (via the guided ATPG of
Step 3), or a resource limit is exceeded:

1. generate/refine the abstract model (subcircuit of kept registers),
2. prove the property or find an error trace on the abstract model
   (forward fixpoint + the BDD-ATPG hybrid engine),
3. use the abstract error trace to guide sequential ATPG toward a
   concrete error trace on the original design,
4. analyze the abstract error trace (3-valued simulation + greedy
   sequential-ATPG minimization) to pick the refinement registers.

The BDD variable order found by dynamic reordering in one iteration seeds
the next iteration's manager (Section 2.2, last paragraph), and since the
abstract model only grows, the next encoding copies every gate function
the two models share from the previous one and builds only the new gates.

Resilience (see :mod:`repro.runtime`): every step runs under the
portfolio supervisor.  A step that exhausts its budget is retried with a
scaled budget, then handed to a fallback engine -- reachability falls
back to k-induction BMC on the abstract model (sound both ways: TRUE on
the abstract model implies TRUE on the design, FALSE yields an abstract
error trace for Steps 3-4), and the hybrid trace engine falls back to
bounded BMC at the hit ring's depth.  Only when the fallbacks fail too
does the run end in ``RESOURCE_OUT``, with the failing engine and
resource named in ``RfnResult.failure``.  The loop checkpoints its
refinement frontier after every iteration so ``--resume`` continues
instead of restarting.

Use :func:`rfn_verify` when you need the never-raises contract.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.atpg.engine import DEFAULT_MAX_CONFLICTS
from repro.engine.verdict import Verdict
from repro.core.abstraction import Abstraction
from repro.core.guided import GuidedSearchResult, guided_concrete_search
from repro.core.hybrid import HybridEngineError, HybridTraceEngine
from repro.core.property import UnreachabilityProperty
from repro.core.refine import crucial_register_candidates, refine_from_trace
from repro.trace import Trace
from repro.mc.bmc import BmcOutcome, BmcResult, bmc
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import DEFAULT_MAX_NODES, ReachOutcome, forward_reach
from repro.mincut import MinCutResult
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.runtime.abort import ABORT_BY_RESOURCE, DepthOut, EngineAbort
from repro.runtime.budget import Budget, Limits
from repro.runtime.chaos import ChaosMonkey
from repro.runtime.checkpoint import RfnCheckpoint
from repro.runtime.supervisor import CONTAINED, AbortInfo, Supervisor


# The CEGAR loop reports through the canonical verdict algebra: a
# resource wall is Verdict.UNKNOWN with ``failure``/``detail`` saying
# which engine and which resource (checkpoint files keep recording the
# historical "resource_out" status string).


@dataclass
class RfnConfig:
    """Tuning knobs for one RFN run."""

    max_iterations: int = 64
    #: Step 2 reachability caps
    reach_limits: Limits = field(
        default_factory=lambda: Limits(max_bdd_nodes=DEFAULT_MAX_NODES)
    )
    #: hybrid-engine and Step 3 ATPG caps (and the BMC fallbacks'
    #: conflict cap)
    atpg_limits: Limits = field(
        default_factory=lambda: Limits(max_conflicts=DEFAULT_MAX_CONFLICTS)
    )
    #: Step 4 refinement-probe caps
    refine_limits: Limits = field(
        default_factory=lambda: Limits(max_conflicts=50_000)
    )
    enable_guided_search: bool = True
    enable_minimization: bool = True
    guidance: bool = True  # cycle cubes for Step 3 (ablation knob)
    # Cap on COI gates x depth for Step 3's sequential ATPG; larger
    # instances use only the cheap trace-replay path (see guided.py).
    guided_max_gate_frames: Optional[int] = 2_000_000
    auto_reorder: bool = True
    # Seed each iteration's variable order with the order dynamic
    # reordering found in the previous one (Section 2.2, last paragraph).
    reuse_variable_order: bool = True
    fallback_candidates: int = 8
    guided_extra_depth: int = 0
    # Section-5 future work: try the overlapping-partition approximate
    # traversal before exact reachability once the abstract model has
    # more registers than one block holds (None = disabled).
    approx_block_size: Optional[int] = None
    approx_overlap: int = 2
    log: Optional[Callable[[str], None]] = None
    # --- resilience (repro.runtime) -----------------------------------
    #: run-level budget; its deadline/memory watermark is polled inside
    #: every engine's hot loop
    budget: Optional[Budget] = None
    #: deterministic fault injector wrapped around every supervised step
    chaos: Optional[ChaosMonkey] = None
    #: write the CEGAR state here after each iteration (for --resume)
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    #: supervised-step retries; each retry scales step budgets by
    #: ``retry_scale**attempt``
    max_retries: int = 1
    retry_scale: float = 2.0
    #: k-induction depth for the abstract-model BMC fallback of Step 2
    fallback_bmc_depth: int = 24
    #: run every SAT engine (BMC fallbacks, guided/refinement ATPG, the
    #: hybrid engine's justification calls) on the pooled incremental
    #: solver sessions; the CLI's --no-incremental escape hatch clears it
    incremental: bool = True
    #: >= 2 races Step 2 (bdd vs k-induction on the abstract model)
    #: across that many portfolio workers (``repro verify --jobs N``);
    #: 0/1 keeps the classic sequential supervised step.  Abstract error
    #: traces from the race are canonicalized, so the CEGAR loop's
    #: refinement decisions stay independent of which worker won.
    parallel: int = 0


@dataclass
class RfnIteration:
    """Per-iteration record (for reporting and the benchmark tables)."""

    index: int
    model_registers: int
    model_inputs: int
    model_gates: int
    reach_outcome: str = ""
    reach_iterations: int = 0
    bdd_nodes: int = 0  # manager allocation after Step 2
    abstract_trace_length: Optional[int] = None
    guided_method: str = ""
    refinement_added: int = 0
    seconds: float = 0.0
    #: comma-joined fallback engines that had to stand in this iteration
    fallbacks: str = ""

    @classmethod
    def from_json(cls, payload: Dict) -> "RfnIteration":
        names = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass
class RfnResult:
    status: Verdict
    prop: UnreachabilityProperty
    iterations: List[RfnIteration] = field(default_factory=list)
    kept_registers: List[str] = field(default_factory=list)
    abstract_model_registers: int = 0
    trace: Optional[Trace] = None
    abstract_trace: Optional[Trace] = None
    seconds: float = 0.0
    detail: str = ""
    # On VERIFIED (via exact fixpoint): the abstract model, its reached-set
    # BDD and the encoding that owns it -- an inductive invariant that
    # repro.core.certify can re-check with the SAT engine.
    abstract_model: Optional[Circuit] = None
    invariant = None  # Optional[Function]
    invariant_encoding = None  # Optional[SymbolicEncoding]
    # --- resilience ----------------------------------------------------
    #: the abort that forced RESOURCE_OUT (names engine and resource)
    failure: Optional[AbortInfo] = None
    #: every abort the supervisor contained along the way
    aborts: List[AbortInfo] = field(default_factory=list)
    #: where the final checkpoint was written, if checkpointing was on
    checkpoint_path: Optional[str] = None
    #: iterations replayed from a resumed checkpoint (prefix of
    #: ``iterations``)
    resumed_iterations: int = 0

    @property
    def verified(self) -> bool:
        return self.status is Verdict.VERIFIED

    @property
    def falsified(self) -> bool:
        return self.status is Verdict.FALSIFIED


class RFN:
    """One property-verification run of the RFN tool."""

    def __init__(
        self,
        circuit: Circuit,
        prop: UnreachabilityProperty,
        config: Optional[RfnConfig] = None,
        resume: Optional[RfnCheckpoint] = None,
    ) -> None:
        self.circuit = circuit
        self.prop = prop
        self.config = config or RfnConfig()
        self.abstraction = Abstraction.initial(circuit, prop)
        self._saved_order: Optional[List[str]] = None
        # The previous iteration's abstract-model encoding: the next one
        # copies the gate functions both models share from it.
        self._seed_encoding: Optional[SymbolicEncoding] = None
        # The latest min-cut, whose flow network the next one grows.
        self._mincut: Optional[MinCutResult] = None
        self.supervisor = Supervisor(
            budget=self.config.budget,
            chaos=self.config.chaos,
            log=self.config.log,
            max_retries=self.config.max_retries,
            retry_scale=self.config.retry_scale,
        )
        self.iterations: List[RfnIteration] = []
        self._completed = 0  # refinement iterations already done
        self._prior_spent: Dict[str, float] = {}
        self._iter_span: Optional[obs.SpanHandle] = None
        if resume is not None:
            resume.validate_against(circuit, prop)
            self.abstraction.refine(resume.kept_registers)
            self._saved_order = list(resume.var_order) or None
            self._completed = resume.iteration
            self.iterations = [
                RfnIteration.from_json(rec) for rec in resume.iterations
            ]
            self._prior_spent = dict(resume.budget_spent)
            if self.config.budget is not None:
                self.config.budget.prior = dict(resume.budget_spent)
        self.resumed_iterations = len(self.iterations)

    def _log(self, message: str) -> None:
        obs.event("rfn.log", message=message)
        if self.config.log is not None:
            self.config.log(message)

    # -- iteration spans -----------------------------------------------
    # The loop body has many exit paths (finish() calls, contained and
    # escaping aborts), so the iteration span is held on the instance
    # and closed by finish()/the next iteration/rfn_verify rather than
    # lexically.  TRACER.close() force-flags anything that still leaks.

    def _open_iter_span(self, index: int, model: Circuit) -> None:
        self._close_iter_span()
        if obs.TRACER.enabled:
            self._iter_span = obs.TRACER.start(
                "rfn.iteration",
                {
                    "iter": index,
                    "registers": model.num_registers,
                    "gates": model.num_gates,
                },
            )

    def _close_iter_span(
        self,
        status: str = "",
        record: Optional[RfnIteration] = None,
    ) -> None:
        handle = self._iter_span
        if handle is None:
            return
        self._iter_span = None
        if status:
            handle.set(status=status)
        if record is not None:
            handle.set(
                engine=record.reach_outcome,
                refined=record.refinement_added,
            )
            if record.fallbacks:
                handle.set(fallbacks=record.fallbacks)
        handle.__exit__(None, None, None)

    def _race_abstract_check(self, model: Circuit):
        """Step 2 in parallel mode: race BDD reachability against
        k-induction on the abstract model.  Both are sound on abstract
        models (TRUE there implies TRUE on the design; FALSE yields an
        abstract error trace for Steps 3-4), so the first definite
        verdict wins.  Worker aborts land in the supervisor's ledger
        like any contained in-process failure."""
        # Lazy import: repro.parallel's rfn strategy imports this module.
        from repro.parallel.portfolio import race

        config = self.config
        outcome = race(
            model,
            self.prop,
            strategies=("bdd", "kinduction"),
            jobs=config.parallel,
            budget=config.budget,
            chaos=config.chaos,
            log=config.log,
            canonicalize=True,
        )
        self.supervisor.aborts.extend(outcome.aborts)
        return outcome

    # ------------------------------------------------------------------

    def _spent(self, elapsed: float) -> Dict[str, float]:
        budget = self.config.budget
        if budget is not None:
            return budget.spent()
        spent = dict(self._prior_spent)
        spent["seconds"] = round(
            float(spent.get("seconds", 0.0)) + elapsed, 4
        )
        return spent

    def save_checkpoint(
        self, status: str, elapsed: float
    ) -> Optional[str]:
        """Write the CEGAR state to ``config.checkpoint_path`` (no-op
        when checkpointing is off)."""
        path = self.config.checkpoint_path
        if path is None:
            return None
        ckpt = RfnCheckpoint(
            circuit_name=self.circuit.name or "",
            property_name=getattr(self.prop, "name", "") or "",
            target=dict(self.prop.target),
            iteration=self._completed,
            kept_registers=sorted(self.abstraction.kept_registers),
            var_order=list(self._saved_order or []),
            budget_spent=self._spent(elapsed),
            iterations=[asdict(rec) for rec in self.iterations],
            status=status,
        )
        ckpt.save(path)
        obs.event(
            "rfn.checkpoint",
            path=path,
            iteration=self._completed,
            status=status,
        )
        return path

    # ------------------------------------------------------------------

    def run(self) -> RfnResult:
        config = self.config
        supervisor = self.supervisor
        budget = config.budget
        start = time.monotonic()
        iterations = self.iterations

        def finish(
            status: Verdict,
            trace: Optional[Trace] = None,
            abstract_trace: Optional[Trace] = None,
            detail: str = "",
            failure: Optional[AbortInfo] = None,
        ) -> RfnResult:
            elapsed = time.monotonic() - start
            # Checkpoint files keep their historical status vocabulary:
            # a definite verdict records its wire string, anything else
            # records "resource_out".
            ckpt_status = status.value if status.definite else "resource_out"
            self._close_iter_span(
                ckpt_status, iterations[-1] if iterations else None
            )
            path = self.save_checkpoint(ckpt_status, elapsed)
            if failure is not None and not detail:
                detail = failure.describe()
            return RfnResult(
                status=status,
                prop=self.prop,
                iterations=iterations,
                kept_registers=sorted(self.abstraction.kept_registers),
                abstract_model_registers=len(self.abstraction.kept_registers),
                trace=trace,
                abstract_trace=abstract_trace,
                seconds=elapsed,
                detail=detail,
                failure=failure,
                aborts=list(supervisor.aborts),
                checkpoint_path=path,
                resumed_iterations=self.resumed_iterations,
            )

        for index in range(self._completed + 1, config.max_iterations + 1):
            if budget is not None:
                try:
                    budget.checkpoint(engine="rfn")
                except EngineAbort as abort:
                    return finish(
                        Verdict.UNKNOWN,
                        failure=AbortInfo.from_exception("rfn", abort),
                    )
            iter_start = time.monotonic()
            model = self.abstraction.model
            record = RfnIteration(
                index=index,
                model_registers=model.num_registers,
                model_inputs=model.num_inputs,
                model_gates=model.num_gates,
            )
            iterations.append(record)
            self._open_iter_span(index, model)
            self._log(
                f"[iter {index}] abstract model: "
                f"{model.num_registers} regs, {model.num_inputs} inputs, "
                f"{model.num_gates} gates"
            )

            # Step 2: prove or find an abstract error trace.
            abstract_trace: Optional[Trace] = None
            encoding: Optional[SymbolicEncoding] = None
            if config.parallel >= 2:
                outcome = self._race_abstract_check(model)
                record.reach_outcome = f"race_{outcome.verdict}"
                if outcome.verified:
                    record.seconds = time.monotonic() - iter_start
                    self._log(
                        f"[iter {index}] portfolio race "
                        f"({outcome.winner}) proved the abstract model: "
                        f"property VERIFIED"
                    )
                    verdict = finish(Verdict.VERIFIED)
                    verdict.abstract_model = model
                    return verdict
                if not outcome.falsified:
                    record.seconds = time.monotonic() - iter_start
                    failure = (
                        outcome.aborts[-1]
                        if outcome.aborts
                        else AbortInfo(
                            engine="portfolio",
                            resource="race",
                            detail="no strategy reached a verdict",
                        )
                    )
                    return finish(
                        Verdict.UNKNOWN,
                        detail=(
                            "abstract-model race inconclusive: "
                            f"{failure.describe()}"
                        ),
                        failure=failure,
                    )
                abstract_trace = outcome.trace
                self._log(
                    f"[iter {index}] portfolio race ({outcome.winner}) "
                    f"found an abstract error trace of length "
                    f"{abstract_trace.length}"
                )
            else:
                encoding = SymbolicEncoding(
                    model,
                    var_order=self._saved_order,
                    seed=self._seed_encoding,
                )
                # The previous manager is needed only for seeding: drop
                # its last holders so it is freed before Step 2 runs.
                self._seed_encoding = reach = images = target = None
                encoding.bdd.auto_reorder = config.auto_reorder
                images = ImageComputer(encoding)
                target = encoding.state_cube(dict(self.prop.target))
                if (
                    config.approx_block_size is not None
                    and model.num_registers > config.approx_block_size
                ):
                    from repro.mc.approx import ApproxOutcome, approximate_check

                    approx = approximate_check(
                        encoding,
                        target,
                        block_size=config.approx_block_size,
                        overlap=config.approx_overlap,
                        limits=(
                            config.reach_limits
                            if budget is None
                            else replace(config.reach_limits, budget=budget)
                        ),
                    )
                    if approx.outcome is ApproxOutcome.PROVED:
                        record.reach_outcome = "approx_proved"
                        record.seconds = time.monotonic() - iter_start
                        self._log(
                            f"[iter {index}] overlapping-partition traversal "
                            f"proved the property ({len(approx.blocks)} blocks, "
                            f"{approx.passes} passes)"
                        )
                        return finish(Verdict.VERIFIED)

                def reach_step(attempt: int):
                    limits = config.reach_limits.scaled(
                        config.retry_scale ** attempt
                    )
                    if budget is not None and limits.budget is None:
                        limits = replace(limits, budget=budget)
                    reach = forward_reach(
                        images,
                        encoding.initial_states(),
                        target=target,
                        limits=limits,
                        step_hook=lambda _i, _r: encoding.bdd.maybe_sift(),
                    )
                    if reach.outcome is ReachOutcome.RESOURCE_OUT:
                        resource = reach.abort_resource or "nodes"
                        abort_cls = ABORT_BY_RESOURCE.get(resource, EngineAbort)
                        raise abort_cls(
                            f"reachability out of {resource} after "
                            f"{reach.iterations} image steps",
                            engine="reach",
                            resource=resource,
                        )
                    return reach

                def reach_fallback(_attempt: int):
                    # k-induction BMC on the abstract model.  Sound both ways:
                    # TRUE on an abstract model implies TRUE on the design,
                    # FALSE yields an abstract error trace for Steps 3-4.
                    result = bmc(
                        model,
                        self.prop,
                        Limits(
                            max_depth=config.fallback_bmc_depth,
                            max_conflicts=config.atpg_limits.max_conflicts,
                            budget=budget,
                        ),
                        induction=True,
                        unique_states=True,
                        incremental=config.incremental,
                    )
                    if result.outcome is BmcOutcome.UNKNOWN:
                        raise DepthOut(
                            f"abstract-model BMC inconclusive at depth "
                            f"{config.fallback_bmc_depth}",
                            engine="abstract-bmc",
                        )
                    return result

                step = supervisor.attempt(
                    "reach",
                    reach_step,
                    fallback=reach_fallback,
                    fallback_name="abstract-bmc",
                )
                record.bdd_nodes = encoding.bdd.total_nodes()
                if not step.ok:
                    record.reach_outcome = "resource_out"
                    record.seconds = time.monotonic() - iter_start
                    return finish(
                        Verdict.UNKNOWN,
                        detail=(
                            "reachability resource limit on abstract model: "
                            f"{step.abort.describe()}"
                        ),
                        failure=step.abort,
                    )

                abstract_trace: Optional[Trace] = None
                reach = None
                if step.fell_back:
                    record.fallbacks = "abstract-bmc"
                    bmc_result: BmcResult = step.value
                    if bmc_result.outcome is BmcOutcome.TRUE:
                        record.reach_outcome = "bmc_induction_true"
                        record.seconds = time.monotonic() - iter_start
                        self._log(
                            f"[iter {index}] abstract-model k-induction "
                            f"closed at depth {bmc_result.induction_depth}: "
                            f"property VERIFIED"
                        )
                        verdict = finish(Verdict.VERIFIED)
                        verdict.abstract_model = model
                        return verdict
                    record.reach_outcome = "bmc_counterexample"
                    abstract_trace = bmc_result.trace
                    self._log(
                        f"[iter {index}] reachability degraded to abstract "
                        f"BMC: counterexample at depth {bmc_result.depth}"
                    )
                else:
                    reach = step.value
                    record.reach_outcome = reach.outcome.value
                    record.reach_iterations = reach.iterations
                    record.bdd_nodes = encoding.bdd.total_nodes()
                    if reach.outcome is ReachOutcome.FIXPOINT:
                        record.seconds = time.monotonic() - iter_start
                        self._log(
                            f"[iter {index}] fixpoint: property VERIFIED"
                        )
                        verdict = finish(Verdict.VERIFIED)
                        verdict.abstract_model = model
                        verdict.invariant = reach.reached
                        verdict.invariant_encoding = encoding
                        return verdict

                if abstract_trace is None:

                    def hybrid_step(attempt: int):
                        scale = config.retry_scale ** attempt
                        hybrid = HybridTraceEngine(
                            model,
                            encoding,
                            images,
                            atpg_limits=config.atpg_limits.scaled(scale),
                            max_cube_tries=int(256 * scale),
                            budget=budget,
                            incremental=config.incremental,
                            previous_mincut=self._mincut,
                        )
                        self._mincut = hybrid.mincut
                        self._hybrid_stats = hybrid.stats
                        try:
                            return hybrid.build_trace(reach, target)
                        except HybridEngineError as error:
                            raise EngineAbort(
                                str(error), engine="hybrid", resource="cubes"
                            ) from error

                    def hybrid_fallback(_attempt: int):
                        # Bounded BMC on the abstract model, depth-limited by
                        # the ring that hit the target.
                        result = bmc(
                            model,
                            self.prop,
                            Limits(
                                max_depth=reach.hit_ring,
                                max_conflicts=config.atpg_limits.max_conflicts,
                                budget=budget,
                            ),
                            induction=False,
                            incremental=config.incremental,
                        )
                        if result.outcome is not BmcOutcome.FALSE:
                            raise DepthOut(
                                f"bounded abstract BMC found no trace within "
                                f"the hit ring depth {reach.hit_ring}",
                                engine="hybrid-bmc",
                            )
                        return result.trace

                    step = supervisor.attempt(
                        "hybrid",
                        hybrid_step,
                        validate=lambda t: (
                            isinstance(t, Trace)
                            and 0 < t.length <= reach.hit_ring + 1
                        ),
                        fallback=hybrid_fallback,
                        fallback_name="hybrid-bmc",
                    )
                    if not step.ok:
                        record.seconds = time.monotonic() - iter_start
                        return finish(
                            Verdict.UNKNOWN,
                            detail=f"hybrid engine: {step.abort.describe()}",
                            failure=step.abort,
                        )
                    abstract_trace = step.value
                    if step.fell_back:
                        record.fallbacks = (
                            f"{record.fallbacks},hybrid-bmc"
                            if record.fallbacks
                            else "hybrid-bmc"
                        )
                        self._log(
                            f"[iter {index}] hybrid engine degraded to "
                            f"bounded abstract BMC"
                        )
                    else:
                        hybrid_stats = self._hybrid_stats
                        self._log(
                            f"[iter {index}] abstract error trace of length "
                            f"{abstract_trace.length} "
                            f"(min-cut {hybrid_stats.mincut_inputs} vs model "
                            f"{hybrid_stats.model_inputs} inputs)"
                        )

            record.abstract_trace_length = abstract_trace.length
            if config.reuse_variable_order and encoding is not None:
                self._saved_order = encoding.saved_order()
                self._seed_encoding = encoding

            # Step 3: guided search on the original design.
            if config.enable_guided_search:

                def guided_step(_attempt: int):
                    return guided_concrete_search(
                        self.circuit,
                        self.prop,
                        [abstract_trace],
                        limits=replace(config.atpg_limits, budget=budget),
                        use_guidance=config.guidance,
                        extra_depth=config.guided_extra_depth,
                        max_gate_frames=config.guided_max_gate_frames,
                        incremental=config.incremental,
                    )

                step = supervisor.attempt("guided", guided_step, retries=0)
                if step.ok:
                    guided: GuidedSearchResult = step.value
                    record.guided_method = guided.method
                    if guided.found:
                        record.seconds = time.monotonic() - iter_start
                        self._log(
                            f"[iter {index}] concrete error trace found "
                            f"via {guided.method}: property FALSIFIED"
                        )
                        return finish(
                            Verdict.FALSIFIED,
                            trace=guided.trace,
                            abstract_trace=abstract_trace,
                        )
                elif supervisor.budget_exhausted:
                    record.seconds = time.monotonic() - iter_start
                    return finish(
                        Verdict.UNKNOWN,
                        abstract_trace=abstract_trace,
                        detail=f"guided search: {step.abort.describe()}",
                        failure=step.abort,
                    )
                else:
                    # A contained guided-search failure is not fatal:
                    # refinement can proceed without a concrete verdict.
                    record.guided_method = "aborted"

            # Step 4: refine.
            def refine_step(attempt: int):
                return refine_from_trace(
                    self.abstraction,
                    abstract_trace,
                    limits=replace(
                        config.refine_limits, budget=budget
                    ).scaled(config.retry_scale ** attempt),
                    minimize=config.enable_minimization,
                    fallback_count=config.fallback_candidates,
                    incremental=config.incremental,
                )

            def refine_fallback(_attempt: int):
                # Phase 1 only: 3-valued-simulation candidates without the
                # ATPG minimization loop (cheap and always terminates).
                return crucial_register_candidates(
                    self.abstraction,
                    abstract_trace,
                    fallback_count=config.fallback_candidates,
                )

            step = supervisor.attempt(
                "refine",
                refine_step,
                fallback=refine_fallback,
                fallback_name="refine-phase1",
            )
            if not step.ok:
                record.seconds = time.monotonic() - iter_start
                return finish(
                    Verdict.UNKNOWN,
                    abstract_trace=abstract_trace,
                    detail=f"refinement: {step.abort.describe()}",
                    failure=step.abort,
                )
            refinement = step.value
            if step.fell_back:
                record.fallbacks = (
                    f"{record.fallbacks},refine-phase1"
                    if record.fallbacks
                    else "refine-phase1"
                )
            added = self.abstraction.refine(refinement.registers)
            record.refinement_added = added
            record.seconds = time.monotonic() - iter_start
            self._log(
                f"[iter {index}] refinement: {refinement.stats.candidates} "
                f"candidates -> {len(refinement.registers)} selected "
                f"({added} new)"
            )
            if added == 0:
                # No progress: fall back to every pseudo-input register the
                # trace mentions, then give up if still stuck.
                frequency = abstract_trace.assigned_signals()
                fallback = [
                    reg
                    for reg in self.abstraction.pseudo_input_registers()
                    if reg in frequency
                ]
                added = self.abstraction.refine(fallback)
                record.refinement_added = added
                if added == 0:
                    return finish(
                        Verdict.UNKNOWN,
                        abstract_trace=abstract_trace,
                        detail=(
                            "refinement made no progress (abstract trace "
                            "could not be invalidated)"
                        ),
                    )
            self._completed = index
            self._close_iter_span("refined", record)
            if (
                config.checkpoint_path is not None
                and index % max(1, config.checkpoint_every) == 0
            ):
                self.save_checkpoint(
                    "in_progress", time.monotonic() - start
                )
        return finish(Verdict.UNKNOWN, detail="iteration limit")


def rfn_verify(
    circuit: Circuit,
    prop: UnreachabilityProperty,
    config: Optional[RfnConfig] = None,
    *,
    resume: Optional[RfnCheckpoint] = None,
    observer: Optional[Callable[["RFN"], None]] = None,
) -> RfnResult:
    """Run RFN with the never-raises contract.

    Any exception short of ``KeyboardInterrupt`` -- an
    :class:`~repro.runtime.abort.EngineAbort` escaping an unsupervised
    code path, a ``MemoryError``, an engine crash -- is converted into a
    structured ``RESOURCE_OUT`` result whose ``failure`` names the
    engine and resource, with whatever iterations completed attached.

    ``observer``, if given, is called with the constructed :class:`RFN`
    before the run starts, so callers that may be interrupted (the CLI)
    can still reach the partial iteration records and save a checkpoint.
    """
    config = config or RfnConfig()
    rfn = RFN(circuit, prop, config, resume=resume)
    if observer is not None:
        observer(rfn)
    start = time.monotonic()
    try:
        return rfn.run()
    except KeyboardInterrupt:
        raise
    except CONTAINED as error:
        engine = rfn.supervisor.current_engine or "rfn"
        failure = AbortInfo.from_exception(engine, error)
    except Exception as error:
        failure = AbortInfo(
            engine=rfn.supervisor.current_engine or "rfn",
            resource="crash",
            detail=f"{type(error).__name__}: {error}",
        )
    # An abort escaped mid-iteration: close its span with the failure
    # recorded, so traces stay well-formed even on contained crashes.
    rfn._close_iter_span(f"resource_out:{failure.resource}")
    elapsed = time.monotonic() - start
    path = None
    try:
        path = rfn.save_checkpoint("resource_out", elapsed)
    except OSError:
        pass
    return RfnResult(
        status=Verdict.UNKNOWN,
        prop=prop,
        iterations=list(rfn.iterations),
        kept_registers=sorted(rfn.abstraction.kept_registers),
        abstract_model_registers=len(rfn.abstraction.kept_registers),
        seconds=elapsed,
        detail=failure.describe(),
        failure=failure,
        aborts=list(rfn.supervisor.aborts),
        checkpoint_path=path,
        resumed_iterations=rfn.resumed_iterations,
    )
