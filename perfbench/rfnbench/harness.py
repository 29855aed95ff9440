"""Run one workload, check its answers, and report its metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced
runs (``--trace 1``) answer one warm-up pass and half a run untraced,
then repeat the same number of passes with the layer wrappers installed
and the ``repro.obs`` tracer writing a v1 JSONL trace, and report the
per-layer metrics plus the tracing overhead between the two halves.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from rfnbench import stats
from rfnbench.layers import LayerTimer
from rfnbench.workloads import WORKLOADS, Outcome, Workload

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5

#: Per-layer metrics every workload prints, in order; workloads add
#: their own (``Workload.layer_units``).  NOTES.md defines each one.
PER_LAYER_UNITS = {
    "kernel.scache.session_s": "s",
    "kernel.scache.session_builds": "count",
    "kernel.scache.solver_pool.hit_rate": "ratio",
    "kernel.scache.frame_template.hit_rate": "ratio",
    "kernel.scache.static_order.hit_rate": "ratio",
    "kernel.scache.compile.hit_rate": "ratio",
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.clauses_reused": "count",
    "atpg.sequential_s": "s",
    "atpg.sequential_calls": "count",
    "atpg.combinational_s": "s",
    "core.refine.phase1_s": "s",
    "core.refine.phase2_s": "s",
    "core.refine.probes": "count",
    "core.guided_s": "s",
    "core.hybrid_s": "s",
    "mincut_s": "s",
    "mincut.input_ratio": "ratio",
    "kernel.replay_s": "s",
    "core.rfn.self_s": "s",
    "cegar_iterations": "count",
    "abstract_registers": "count",
    "mc.reach_s": "s",
    "mc.reach_calls": "count",
    "bdd.nodes_peak": "count",
    "core.coverage.self_s": "s",
    "sim.presim_s": "s",
    "obs.overhead_share": "ratio",
}

#: Layer -> (self-time metric, call-count metric or None).
_LAYER_METRICS = {
    "kernel.scache.session": ("kernel.scache.session_s", None),
    "sat.solve": ("sat.solve_s", "sat.solve_calls"),
    "atpg.sequential": ("atpg.sequential_s", "atpg.sequential_calls"),
    "atpg.combinational": ("atpg.combinational_s", None),
    "core.refine.phase1": ("core.refine.phase1_s", None),
    "core.refine.phase2": ("core.refine.phase2_s", None),
    "core.refine.probe": (None, "core.refine.probes"),
    "core.guided": ("core.guided_s", None),
    "core.hybrid": ("core.hybrid_s", None),
    "mincut": ("mincut_s", None),
    "kernel.replay": ("kernel.replay_s", None),
    "core.rfn": ("core.rfn.self_s", None),
    "mc.reach": ("mc.reach_s", "mc.reach_calls"),
    "core.coverage": ("core.coverage.self_s", None),
    "sim.presim": ("sim.presim_s", None),
    "parallel.canonical_witness": ("parallel.canonical_witness_s", None),
}


def passes_for(workload: Workload, seconds: float,
               min_samples: int = 1) -> int:
    """Passes that take about ``seconds`` on the reference machine, and
    at least enough for ``min_samples`` obligations.  The count, not a
    clock, ends the run, so every run answers the same obligations and
    reports percentiles over the same sample count."""
    per_pass = len(workload.items)
    return max(round(seconds / workload.pass_seconds),
               math.ceil(min_samples / per_pass))


def measure(workload: Workload,
            passes: int) -> Tuple[List[Outcome], float]:
    """Answer ``passes`` passes; returns the outcomes and wall seconds."""
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    for _ in range(passes):
        outcomes.extend(workload.run_pass())
    return outcomes, time.perf_counter() - start


def probe_setup(workload: str, seed: int, count: int) -> List[float]:
    """``setup`` timed in ``count`` fresh interpreters, one at a time."""
    run_py = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "run.py")
    samples = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, run_py, "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(json.loads(
            completed.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def setup_probe(workload: str, seed: int) -> int:
    start = time.perf_counter()
    WORKLOADS[workload](out_dir="").setup(seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def end_to_end(outcomes: List[Outcome], wall: float,
               setup_samples: List[float], rss_mb: float) -> Dict:
    times = [o.seconds for o in outcomes]
    correct = sum(1 for o in outcomes if o.ok)
    q, tail_value = stats.tail(times)
    print(f"# obligations: {len(outcomes)} attempted, {correct} correct, "
          f"{len(outcomes) - correct} failed "
          f"(failed_share {(len(outcomes) - correct) / len(outcomes):.4f}) "
          f"in {wall:.3f} s")
    print(f"# obligation_s.tail is p{q:.2f} of {len(times)} samples")
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    return {
        "setup_s": stats.metric(statistics.median(setup_samples), "s"),
        "obligations_per_s": stats.metric(correct / wall, "1/s"),
        "obligation_s.p50": stats.metric(statistics.median(times), "s"),
        "obligation_s.tail": stats.metric(tail_value, "s"),
        "peak_rss_mb": stats.metric(rss_mb, "MB"),
    }


def per_layer(workload: Workload, timer: LayerTimer, perf: Dict,
              cut_inputs: List[int], outcomes: List[Outcome], passes: int,
              records: List[dict], overhead: float) -> Dict:
    units = dict(PER_LAYER_UNITS, **workload.layer_units)
    values = {name: 0.0 for name in units}
    for layer, (self_name, calls_name) in _LAYER_METRICS.items():
        if self_name in units:
            values[self_name] = timer.self_s.get(layer, 0.0) / passes
        if calls_name in units:
            values[calls_name] = timer.calls.get(layer, 0) / passes
    caches = perf.get("caches", {})
    for cache in ("solver_pool", "frame_template", "static_order", "compile"):
        values[f"kernel.scache.{cache}.hit_rate"] = \
            caches.get(cache, {}).get("hit_rate", 0.0)
    values["kernel.scache.session_builds"] = \
        caches.get("solver_pool", {}).get("misses", 0) / passes
    values["sat.clauses_reused"] = \
        perf.get("counters", {}).get("sat.clauses_reused", 0) / passes
    values["bdd.nodes_peak"] = perf.get("gauges", {}).get("bdd.nodes", 0.0)
    cut, model = cut_inputs
    values["mincut.input_ratio"] = cut / model if model else 0.0
    values["cegar_iterations"] = sum(
        int(o.info.get("iterations", 0)) for o in outcomes) / passes
    values["abstract_registers"] = sum(
        int(o.info.get("registers", 0)) for o in outcomes) / passes
    values.update(workload.layer_metrics(outcomes, passes, records))
    values["obs.overhead_share"] = overhead
    return {name: stats.metric(values[name], unit)
            for name, unit in units.items()}


def untraced(workload: Workload, seed: int,
             seconds: float) -> Tuple[List[Outcome], Dict, List[str]]:
    # Enough samples that the tail percentile lies above the median.
    passes = passes_for(workload, seconds, 2 * stats.TAIL_SAMPLES + 1)
    outcomes, wall = measure(workload, passes)
    rss_mb = stats.peak_rss_mb()
    setup_samples = probe_setup(workload.name, seed, SETUP_PROBES)
    workload.check(outcomes)
    return outcomes, end_to_end(outcomes, wall, setup_samples, rss_mb), []


def traced(workload: Workload, seconds: float,
           trace_path: str) -> Tuple[List[Outcome], Dict, List[str]]:
    from repro.kernel.perf import PERF
    from repro.obs import tracer as obs
    from repro.obs.schema import load_records, validate_records

    # One uncounted pass first, so that first-call costs (lazy imports,
    # page faults) land on neither side of the overhead comparison.
    warmup, _ = measure(workload, 1)
    passes = passes_for(workload, seconds / 2)
    plain, plain_wall = measure(workload, passes)
    timer = LayerTimer()
    cut_inputs = [0, 0]  # min-cut design inputs, abstract-model inputs

    def count_cut(result, circuit, *_args, **_kwargs):
        cut_inputs[0] += result.num_inputs
        cut_inputs[1] += circuit.num_inputs

    timer.on_result("mincut", count_cut)
    PERF.reset()
    timer.install()
    obs.TRACER.enable(trace_path)
    try:
        outcomes, wall = measure(workload, passes)
    finally:
        obs.TRACER.close()
        timer.uninstall()
    perf = PERF.snapshot()
    records = load_records(trace_path)
    problems = validate_records(records)
    print(f"# trace: {trace_path} ({len(records)} records, "
          f"{len(problems)} schema problems)")
    for problem in problems[:10]:
        print(f"# trace problem: {problem}")
    attempted = warmup + plain + outcomes
    # Checked before the per-layer metrics: the portfolio's virtual-best
    # baseline needs the reference verdicts the check computes.
    workload.check(attempted)
    metrics = per_layer(workload, timer, perf, cut_inputs, outcomes, passes,
                        records, wall / plain_wall - 1.0)
    return attempted, metrics, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[workload_name](out_dir)
    workload.setup(seed)
    try:
        if trace:
            trace_path = os.path.join(
                out_dir, f"trace-{workload_name}-seed{seed}.jsonl")
            attempted, metrics, problems = traced(workload, seconds,
                                                  trace_path)
        else:
            attempted, metrics, problems = untraced(workload, seed, seconds)
    finally:
        workload.cleanup()
    stats.check_names(metrics)
    failed = [o for o in attempted if not o.ok]
    for outcome in failed[:20]:
        print(f"# FAIL {workload_name} {outcome.name}: {outcome.why}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1
