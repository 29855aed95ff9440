"""The four benchmark workloads and the checks on their answers.

Each workload builds its inputs from the seed in :meth:`setup` (which
also performs every ``repro`` import the workload needs, so a fresh
interpreter timing ``setup`` measures imports too), answers one *pass*
of obligations per :meth:`run_pass`, one obligation at a time, and
judges every answer in :meth:`check` with code that did not produce it.

Why these four (see NOTES.md for the measurements behind them):

- ``table1``: Table 1's five properties.  SAT sessions and refinement
  dominate; BDDs are small.
- ``coverage``: Table 2's seven coverage sets.  BDD reachability and the
  analyzer's own set algebra dominate; SAT is minor.
- ``portfolio``: engine races in forked workers.  Process overhead
  dominates; the CEGAR loop is bypassed.
- ``serve``: the journaled daemon.  Queueing, fsync and the service's
  worker manager dominate.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Outcome:
    """One answered (or failed) obligation."""

    name: str
    seconds: float
    verdict: Optional[str]
    info: Dict[str, object] = field(default_factory=dict)
    ok: Optional[bool] = None
    why: str = ""


def _permuted(circuit, seed: int):
    """The seeded declaration-order permutations (semantics-preserving)."""
    from repro.netlist.transform import (
        permute_gates,
        permute_registers,
        reorder_inputs,
    )

    circuit = permute_gates(circuit, seed=seed)
    circuit = reorder_inputs(circuit, seed=seed)
    return permute_registers(circuit, seed=seed)


def _certify_trace(circuit, prop, trace) -> str:
    """Replay a FALSIFIED trace on the interpreted simulator; returns a
    failure reason, empty when the trace is a real counterexample."""
    from repro.core.certify import certify_error_trace

    if trace is None:
        return "falsified without a trace"
    certificate = certify_error_trace(
        circuit, prop, trace, simulator="interpreted"
    )
    return "" if certificate.ok else f"trace replay failed: {certificate}"


class Workload:
    name = ""
    #: Wall seconds of one pass on the reference machine (a 2-core
    #: x86-64 container); sets how many passes a run answers.
    pass_seconds = 1.0
    #: Per-layer metrics only this workload prints: name -> unit.
    layer_units: Dict[str, str] = {}

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        #: One entry per obligation of a pass, filled by :meth:`setup`.
        self.items: List[tuple] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self) -> List[Outcome]:
        raise NotImplementedError

    def check(self, outcomes: List[Outcome]) -> None:
        raise NotImplementedError

    def layer_metrics(self, outcomes: List[Outcome], passes: int,
                      trace_records: List[dict]) -> Dict[str, float]:
        """Workload-specific per-layer metrics, per pass."""
        return {}

    def cleanup(self) -> None:
        """Remove files the passes left behind."""


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------

#: Table 1 at the default (CI) scale: verdict, CEGAR iterations and
#: final abstract-model registers.  Iterations and registers may shrink
#: but must not grow.
TABLE1_EXPECTED = {
    "mutex": ("verified", 3, 3),
    "error_flag": ("falsified", 5, 5),
    "psh_hf": ("verified", 6, 6),
    "psh_af": ("verified", 6, 6),
    "psh_full": ("verified", 6, 6),
}


class Table1(Workload):
    name = "table1"
    pass_seconds = 3.0

    def setup(self, seed: int) -> None:
        from repro.core import RFN, RfnConfig
        from repro.designs import table1_workloads
        from repro.kernel.scache import clear_caches

        self._rfn, self._config, self._clear = RFN, RfnConfig, clear_caches
        rows = table1_workloads()
        permuted = {}
        self.items = []
        for row in rows:
            key = id(row.circuit)
            if key not in permuted:
                permuted[key] = _permuted(row.circuit, seed)
            self.items.append((row.name, permuted[key], row.prop))

    def run_pass(self) -> List[Outcome]:
        outcomes = []
        for name, circuit, prop in self.items:
            # A CLI user pays the cold caches once per property.
            self._clear()
            start = time.perf_counter()
            result = self._rfn(circuit, prop, self._config()).run()
            seconds = time.perf_counter() - start
            outcomes.append(Outcome(
                name, seconds, result.status.value,
                info={
                    "iterations": len(result.iterations),
                    "registers": result.abstract_model_registers,
                    "trace": result.trace,
                    "circuit": circuit,
                    "prop": prop,
                },
            ))
        return outcomes

    def check(self, outcomes: List[Outcome]) -> None:
        for outcome in outcomes:
            verdict, iterations, registers = TABLE1_EXPECTED[outcome.name]
            info = outcome.info
            if outcome.verdict != verdict:
                outcome.why = f"verdict {outcome.verdict}, expected {verdict}"
            elif info["iterations"] > iterations:
                outcome.why = (f"{info['iterations']} CEGAR iterations, "
                               f"table has {iterations}")
            elif info["registers"] > registers:
                outcome.why = (f"{info['registers']} abstract registers, "
                               f"table has {registers}")
            elif verdict == "falsified":
                outcome.why = _certify_trace(
                    info["circuit"], info["prop"], info["trace"]
                )
            outcome.ok = not outcome.why


# ----------------------------------------------------------------------
# coverage
# ----------------------------------------------------------------------

#: CEGAR iterations per coverage set.  At this cap every row already
#: reaches the unreachable count of an uncapped run, and a pass of the
#: seven rows fits the run length (NOTES.md has the per-cap timings).
COVERAGE_ITERATIONS = 2

#: Unreachable coverage states per Table 2 row at the default scale.
COVERAGE_EXPECTED = {
    "IU1": 741,
    "IU2": 741,
    "IU3": 741,
    "IU4": 741,
    "IU5": 768,
    "USB1": 24,
    "USB2": 2_020_799,
}


class Coverage(Workload):
    name = "coverage"
    pass_seconds = 9.0

    def setup(self, seed: int) -> None:
        from repro.core.coverage import CoverageAnalyzer, CoverageConfig
        from repro.designs import table2_workloads
        from repro.kernel.scache import clear_caches

        self._analyzer, self._clear = CoverageAnalyzer, clear_caches
        # No wall-clock cap: a row that runs long is slow, never wrong.
        self._config = CoverageConfig(
            max_iterations=COVERAGE_ITERATIONS, max_seconds=None
        )
        permuted = {}
        self.items = []
        for row in table2_workloads():
            key = id(row.circuit)
            if key not in permuted:
                permuted[key] = _permuted(row.circuit, seed)
            self.items.append((row.name, permuted[key], row.signals))

    def run_pass(self) -> List[Outcome]:
        outcomes = []
        for name, circuit, signals in self.items:
            self._clear()
            start = time.perf_counter()
            result = self._analyzer(circuit, signals, self._config).run()
            unreachable = result.num_unreachable
            seconds = time.perf_counter() - start
            outcomes.append(Outcome(
                name, seconds, str(unreachable),
                info={
                    "iterations": result.iterations,
                    "registers": result.model_registers,
                },
            ))
        return outcomes

    def check(self, outcomes: List[Outcome]) -> None:
        for outcome in outcomes:
            expected = str(COVERAGE_EXPECTED[outcome.name])
            if outcome.verdict != expected:
                outcome.why = (f"{outcome.verdict} unreachable states, "
                               f"expected {expected}")
            outcome.ok = not outcome.why


# ----------------------------------------------------------------------
# reference verdicts (portfolio, serve)
# ----------------------------------------------------------------------

#: In-process engines asked for a reference verdict, in order, until two
#: definite answers agree.  The explicit-state kernel engine is not one
#: of the portfolio's strategies; its state cap covers the 2**16-state
#: designs (other engines ignore it).  No engine here runs under a
#: wall-clock cap.
REFERENCE_ENGINES = ("kernel", "kinduction", "bdd", "bmc")
KERNEL_MAX_STATES = 1 << 17


def reference_verdict(circuit, prop) -> Optional[str]:
    """The verdict at least two registry engines agree on through
    ``Verdict.join_all``; None when fewer than two answer or any two
    contradict each other."""
    from repro.engine import DisagreeError, Limits, join_all, registry

    definite = []
    limits = Limits(max_states=KERNEL_MAX_STATES)
    for name in REFERENCE_ENGINES:
        result = registry.get(name).run(circuit, prop, limits)
        if result.verdict.definite:
            definite.append(result.verdict)
        if len(definite) >= 2:
            break
    if len(definite) < 2:
        return None
    try:
        return join_all(definite).value
    except DisagreeError:
        return None


def _fuzz_corpus(first_seed: int, count: int):
    from repro.fuzz.gen import generate_instance

    corpus = []
    for offset in range(count):
        instance = generate_instance(first_seed + offset)
        corpus.append((instance.name, instance.circuit, instance.prop))
    return corpus


# ----------------------------------------------------------------------
# portfolio
# ----------------------------------------------------------------------

#: Fuzz instances raced per pass, next to lfsr16 and satcnt16.
FUZZ_RACES = 40
RACE_JOBS = 2
#: The race's budget, split into equal per-strategy slices.  A slice
#: that expires yields UNKNOWN from that strategy only; if no strategy
#: answers, the obligation fails.  The budget never decides a verdict.
RACE_BUDGET_S = 4.0


class Portfolio(Workload):
    name = "portfolio"
    pass_seconds = 2.9
    layer_units = {
        "parallel.race_overhead_s": "s",
        "parallel.vbest_ratio": "ratio",
        "parallel.vbest_s": "s",
        "parallel.loser_worker_s": "s",
        "parallel.canonical_witness_s": "s",
    }

    def setup(self, seed: int) -> None:
        # repro.parallel cannot be the first repro import (NOTES.md).
        import repro.core  # noqa: F401
        from repro.designs.counters import lfsr, saturating_counter
        from repro.kernel.scache import clear_caches
        from repro.parallel import STRATEGY_ORDER, race
        from repro.runtime.budget import Budget

        self._race, self._budget = race, Budget
        self._clear, self.strategies = clear_caches, STRATEGY_ORDER
        self.items = _fuzz_corpus(seed * 1000, FUZZ_RACES)
        self.items.append(("lfsr16",) + lfsr(16))
        self.items.append(("satcnt16",) + saturating_counter(width=16))

    def run_pass(self) -> List[Outcome]:
        outcomes = []
        for name, circuit, prop in self.items:
            self._clear()
            budget = self._budget(max_seconds=RACE_BUDGET_S)
            start = time.perf_counter()
            result = self._race(
                circuit, prop, self.strategies, jobs=RACE_JOBS, budget=budget
            )
            seconds = time.perf_counter() - start
            winner = result.envelope_of(result.winner or "")
            outcomes.append(Outcome(
                name, seconds, result.verdict.value,
                info={
                    "trace": result.trace,
                    "circuit": circuit,
                    "prop": prop,
                    "winner_s": winner.seconds if winner else 0.0,
                },
            ))
        return outcomes

    def check(self, outcomes: List[Outcome]) -> None:
        references = {
            name: reference_verdict(circuit, prop)
            for name, circuit, prop in self.items
        }
        for outcome in outcomes:
            expected = references[outcome.name]
            if expected is None:
                outcome.why = "no two reference engines agree"
            elif outcome.verdict != expected:
                outcome.why = f"verdict {outcome.verdict}, expected {expected}"
            elif expected == "falsified":
                info = outcome.info
                outcome.why = _certify_trace(
                    info["circuit"], info["prop"], info["trace"]
                )
            outcome.ok = not outcome.why
        self.references = references

    def virtual_best(self, circuit, prop, expected: str) -> Optional[float]:
        """Seconds of the fastest single portfolio strategy that answers
        ``expected`` in-process.  Each engine runs under a cap equal to
        the best time so far (at most one race slice): an engine that
        hits it cannot be the fastest."""
        from repro.engine import Limits, registry

        best = None
        slice_s = RACE_BUDGET_S / len(self.strategies)
        # The SAT engines first: they are quick on these instances, so
        # bdd and rfn then run under a tight cap instead of a full slice.
        for name in sorted(self.strategies,
                           key=lambda s: s not in ("kinduction", "bmc")):
            cap = slice_s if best is None else min(best, slice_s)
            limits = Limits(budget=self._budget(max_seconds=cap))
            start = time.perf_counter()
            result = registry.get(name).run(circuit, prop, limits)
            seconds = time.perf_counter() - start
            if result.verdict.value == expected and (
                best is None or seconds < best
            ):
                best = seconds
        return best

    def layer_metrics(self, outcomes, passes, trace_records):
        race_s = sum(o.seconds for o in outcomes)
        overhead = sum(o.seconds - o.info["winner_s"] for o in outcomes)
        vbest = {}
        for name, circuit, prop in self.items:
            expected = self.references.get(name)
            if expected is not None:
                vbest[name] = self.virtual_best(circuit, prop, expected) or 0.0
        vbest_s = sum(vbest.get(o.name, 0.0) for o in outcomes)
        return {
            "parallel.race_overhead_s": overhead / passes,
            "parallel.vbest_ratio": race_s / vbest_s if vbest_s else 0.0,
            "parallel.vbest_s": vbest_s / passes,
            "parallel.loser_worker_s":
                loser_worker_seconds(trace_records) / passes,
        }


def loser_worker_seconds(records: List[dict]) -> float:
    """Worker lifetime spent on strategies that did not win their race,
    from the ``portfolio.race`` / ``portfolio.worker`` spans the race
    records (cancelled workers included)."""
    races = [r for r in records
             if r.get("type") == "span" and r.get("name") == "portfolio.race"]
    total = 0.0
    for record in records:
        if record.get("type") != "span" or \
                record.get("name") != "portfolio.worker":
            continue
        for race in races:
            if race["ts"] <= record["ts"] <= race["ts"] + race["dur"]:
                if record["attrs"].get("strategy") != \
                        race["attrs"].get("winner"):
                    total += record["dur"]
                break
    return total


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

#: Jobs per batch.  One client submits a batch, waits for every result,
#: then submits the next (a closed loop over batches).
SERVE_JOBS = 40
SERVE_WORKERS = 2


class Serve(Workload):
    name = "serve"
    pass_seconds = 0.9
    layer_units = {
        "serve.submit_s": "s",
        "serve.job_s": "s",
        "serve.attempts_per_job": "count",
    }

    def setup(self, seed: int) -> None:
        import repro.core  # noqa: F401  (see Portfolio.setup)
        from repro.netlist.textio import circuit_to_text
        from repro.serve import (
            Daemon,
            ServeConfig,
            make_job,
            read_result,
            submit_job,
        )

        self._daemon, self._config = Daemon, ServeConfig
        self._make, self._submit = make_job, submit_job
        self._read = read_result
        self.items = _fuzz_corpus(seed * 1000 + 500, SERVE_JOBS)
        self.texts = [circuit_to_text(c) for _, c, _ in self.items]
        self.batches = 0
        self.queue_root = os.path.join(self.out_dir, f"serve-{os.getpid()}")

    def run_pass(self) -> List[Outcome]:
        queue_dir = os.path.join(self.queue_root, f"batch-{self.batches}")
        self.batches += 1
        submitted = []
        for (name, _, prop), text in zip(self.items, self.texts):
            submitted_at = time.time()
            start = time.perf_counter()
            job = self._make(text, name, target=dict(prop.target),
                             prop_name=prop.name)
            self._submit(queue_dir, job)
            submit_s = time.perf_counter() - start
            submitted.append((name, job.id, submitted_at, submit_s))
        self._daemon(self._config(
            queue_dir=queue_dir,
            workers=SERVE_WORKERS,
            until_idle=True,
            install_signals=False,
        )).run()
        outcomes = []
        for name, job_id, submitted_at, submit_s in submitted:
            path = os.path.join(queue_dir, "results", f"{job_id}.json")
            result = self._read(queue_dir, job_id)
            if result is None:
                outcomes.append(Outcome(name, 0.0, None,
                                        info={"lost": True}))
                continue
            latency = os.stat(path).st_mtime - submitted_at
            outcomes.append(Outcome(name, latency, result.get("verdict"),
                                    info=dict(result, submit_s=submit_s)))
        return outcomes

    def check(self, outcomes: List[Outcome]) -> None:
        references = {
            name: reference_verdict(circuit, prop)
            for name, circuit, prop in self.items
        }
        for outcome in outcomes:
            expected = references[outcome.name]
            info = outcome.info
            if info.get("lost"):
                outcome.why = "job lost: no result file"
            elif info.get("state") != "done":
                outcome.why = (f"job ended {info.get('state')}: "
                               f"{info.get('reply') or info.get('detail')}")
            elif expected is None:
                outcome.why = "no two reference engines agree"
            elif outcome.verdict != expected:
                outcome.why = f"verdict {outcome.verdict}, expected {expected}"
            outcome.ok = not outcome.why

    def layer_metrics(self, outcomes, passes, trace_records):
        done = [o for o in outcomes if not o.info.get("lost")]
        jobs = max(1, len(done))
        return {
            "serve.submit_s": sum(o.info["submit_s"] for o in done) / passes,
            "serve.job_s": sum(float(o.info.get("seconds", 0.0))
                               for o in done) / passes,
            "serve.attempts_per_job": sum(int(o.info.get("attempt", 0))
                                          for o in done) / jobs,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.queue_root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Table1, Coverage, Portfolio, Serve)}
