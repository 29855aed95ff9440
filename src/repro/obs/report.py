"""Human-readable run reports rendered from a trace.

``render_report`` inspects the record list and emits:

- an RFN per-iteration table (iteration, winning engine, per-step
  outcome, wall time, refinement size) built from ``rfn.iteration``
  spans and their nested ``step.*`` / ``portfolio.*`` children;
- what the CEGAR iterations carried over instead of rebuilding
  (``mc.encode``, ``mincut`` and ``sat.session`` spans);
- a fuzz campaign rollup (instances, mismatches, resource-outs, shard
  lanes) from ``fuzz.*`` spans;
- a counters summary from the final metrics snapshot;
- an abort/retry digest from supervisor events.

Everything degrades gracefully: a trace without RFN spans simply has no
RFN section, and vice versa.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def _spans(records: List[dict], name: Optional[str] = None) -> List[dict]:
    spans = [
        r
        for r in records
        if r.get("type") == "span" and (name is None or r.get("name") == name)
    ]
    spans.sort(key=lambda r: (r.get("ts", 0.0), -r.get("dur", 0.0)))
    return spans


def _events(records: List[dict], name: str) -> List[dict]:
    return [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") == name
    ]


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def _rfn_section(records: List[dict]) -> List[str]:
    iterations = _spans(records, "rfn.iteration")
    if not iterations:
        return []
    by_parent: Dict[str, List[dict]] = {}
    for record in _spans(records):
        parent = record.get("parent")
        if parent is not None:
            by_parent.setdefault(parent, []).append(record)

    rows: List[List[str]] = []
    for span in iterations:
        attrs = span.get("attrs") or {}
        children = by_parent.get(span.get("id"), [])
        steps = ",".join(
            f"{c['name'].split('.', 1)[-1]}:{c.get('outcome', '?')}"
            for c in children
            if c.get("name", "").startswith(("step.", "portfolio."))
        )
        rows.append(
            [
                str(attrs.get("iter", "?")),
                str(attrs.get("engine", attrs.get("status", "-"))),
                str(attrs.get("status", span.get("outcome", "?"))),
                f"{span.get('dur', 0.0):.3f}s",
                str(attrs.get("refined", "-")),
                steps or "-",
            ]
        )
    lines = ["RFN iterations", ""]
    lines.extend(
        _table(
            ["iter", "engine", "status", "time", "refined", "steps"], rows
        )
    )
    return lines


def _incremental_section(records: List[dict]) -> List[str]:
    """What each CEGAR iteration rebuilt and what it carried over: BDD
    gate functions copied versus built (``mc.encode``), min-cut networks
    grown versus built cold (``mincut``), SAT session builds
    (``sat.session``), and refinement probes solved versus answered
    from the previous probe's witness (``refine.phase2``)."""
    encodes = _spans(records, "mc.encode")
    cuts = _spans(records, "mincut")
    sessions = _spans(records, "sat.session")
    phase2 = _spans(records, "refine.phase2")
    if not encodes and not cuts and not sessions and not phase2:
        return []

    def total(spans: List[dict], key: str) -> int:
        return sum((s.get("attrs") or {}).get(key, 0) for s in spans)

    def seconds(spans: List[dict]) -> str:
        return f"{sum(s.get('dur', 0.0) for s in spans):.3f}s"

    lines = ["Incremental CEGAR", ""]
    if encodes:
        lines.append(
            f"  mc.encode: {len(encodes)} encodings, {seconds(encodes)}, "
            f"gates copied={total(encodes, 'copied')} "
            f"built={total(encodes, 'built')}"
        )
    if cuts:
        reused = sum(1 for s in cuts if (s.get("attrs") or {}).get("reused"))
        lines.append(
            f"  mincut: {len(cuts)} cuts, {seconds(cuts)}, "
            f"network reused={reused} cold={len(cuts) - reused}, "
            f"cut inputs={total(cuts, 'cut_inputs')}"
        )
    if sessions:
        lines.append(
            f"  sat.session: {len(sessions)} builds, {seconds(sessions)}, "
            f"clauses={total(sessions, 'clauses')}"
        )
    if phase2:
        lines.append(
            f"  refine.phase2: {len(phase2)} minimisations, "
            f"{seconds(phase2)}, probes={total(phase2, 'probes')} "
            f"solved={total(phase2, 'solved')} "
            f"answered={total(phase2, 'answered')}"
        )
    return lines


def _fuzz_section(records: List[dict]) -> List[str]:
    instances = _spans(records, "fuzz.instance")
    campaigns = _spans(records, "fuzz.campaign")
    if not instances and not campaigns:
        return []
    lines = ["Fuzz campaign", ""]
    if campaigns:
        attrs = campaigns[-1].get("attrs") or {}
        lines.append(
            f"  iterations={attrs.get('iterations', '?')} "
            f"mismatches={attrs.get('mismatches', '?')} "
            f"resource_out={attrs.get('resource_out', '?')} "
            f"jobs={attrs.get('jobs', 1)} "
            f"wall={campaigns[-1].get('dur', 0.0):.2f}s"
        )
    if instances:
        pids = sorted({r.get("pid") for r in instances})
        bad = [r for r in instances if r.get("outcome") != "ok"]
        mean = sum(r.get("dur", 0.0) for r in instances) / len(instances)
        lines.append(
            f"  instances={len(instances)} lanes={len(pids)} "
            f"non-ok={len(bad)} mean={mean * 1e3:.1f}ms"
        )
    return lines


def _serve_section(records: List[dict]) -> List[str]:
    """Service digest: per-job attempt table plus watchdog/breaker
    activity, rendered from ``serve.job`` spans and ``serve.*`` /
    ``watchdog.preempt`` / ``breaker.*`` events."""
    attempts = _spans(records, "serve.job")
    starts = _events(records, "serve.start")
    if not attempts and not starts:
        return []
    lines = ["Service digest", ""]
    jobs: Dict[str, List[dict]] = {}
    for span in attempts:
        attrs = span.get("attrs") or {}
        jobs.setdefault(str(attrs.get("job", "?")), []).append(span)
    rows: List[List[str]] = []
    for job_id, spans in sorted(jobs.items()):
        last = max(spans, key=lambda s: (s.get("attrs") or {}).get(
            "attempt", 0))
        attrs = last.get("attrs") or {}
        total = sum(s.get("dur", 0.0) for s in spans)
        rows.append(
            [
                job_id,
                str(attrs.get("name", "-")),
                str(len(spans)),
                str(last.get("outcome", "?")),
                f"{total:.3f}s",
                str(attrs.get("strategies", "-")),
            ]
        )
    if rows:
        lines.extend(
            _table(
                ["job", "name", "attempts", "outcome", "time",
                 "strategies"],
                rows,
            )
        )
    preempts = _events(records, "watchdog.preempt")
    for event in preempts:
        attrs = event.get("attrs") or {}
        lines.append(
            f"  preempt pid {attrs.get('pid', '?')} "
            f"job {attrs.get('job', '?')}: {attrs.get('reason', '?')} "
            f"-> {attrs.get('how', '?')}"
        )
    deaths = _events(records, "serve.worker_death")
    for event in deaths:
        attrs = event.get("attrs") or {}
        lines.append(
            f"  worker death pid {attrs.get('pid', '?')} "
            f"job {attrs.get('job', '?')} "
            f"(exitcode {attrs.get('exitcode', '?')}) "
            f"during {attrs.get('strategy', '?')}"
        )
    for event in _events(records, "serve.orphan_killed"):
        attrs = event.get("attrs") or {}
        lines.append(
            f"  orphan worker {attrs.get('pid', '?')} "
            f"(job {attrs.get('job', '?')}) killed on restart"
        )
    for state in ("open", "half-open", "closed"):
        for event in _events(records, f"breaker.{state}"):
            attrs = event.get("attrs") or {}
            lines.append(
                f"  breaker {attrs.get('strategy', '?')}: {state}"
            )
    shed = _events(records, "serve.shed")
    if shed:
        lines.append(f"  load-shed: {len(shed)} submission(s) RETRY_LATER")
    return lines


def _supervisor_section(records: List[dict]) -> List[str]:
    contained = _events(records, "supervisor.contained")
    fallbacks = _events(records, "supervisor.fallback")
    if not contained and not fallbacks:
        return []
    lines = ["Supervisor activity", ""]
    for event in contained:
        attrs = event.get("attrs") or {}
        lines.append(
            f"  contained {attrs.get('engine', '?')} attempt "
            f"{attrs.get('attempt', '?')}: "
            f"{attrs.get('resource', attrs.get('kind', '?'))} "
            f"({attrs.get('detail', '')})".rstrip()
        )
    for event in fallbacks:
        attrs = event.get("attrs") or {}
        lines.append(
            f"  fallback {attrs.get('engine', '?')} -> "
            f"{attrs.get('fallback', '?')}"
        )
    return lines


def _counters_section(records: List[dict]) -> List[str]:
    snapshots = [r for r in records if r.get("type") == "counters"]
    if not snapshots:
        return []
    final = snapshots[-1].get("counters") or {}
    lines = ["Counters (final snapshot)", ""]
    for key in (
        "gate_evals",
        "pattern_gate_evals",
        "patterns_simulated",
        "sim_seconds",
    ):
        if key in final:
            value = final[key]
            shown = f"{value:.3f}" if isinstance(value, float) else f"{value}"
            lines.append(f"  {key}: {shown}")
    hits = final.get("cache_hits") or {}
    misses = final.get("cache_misses") or {}
    for cache in sorted(set(hits) | set(misses)):
        h, m = hits.get(cache, 0), misses.get(cache, 0)
        total = h + m
        rate = (100.0 * h / total) if total else 0.0
        lines.append(f"  cache {cache}: {h}/{total} hits ({rate:.1f}%)")
    gauges = final.get("gauges") or {}
    for name in sorted(gauges):
        lines.append(f"  gauge {name}: {gauges[name]:g}")
    extra = final.get("counters") or {}
    for name in sorted(extra):
        lines.append(f"  {name}: {extra[name]}")
    return lines


def _lanes_section(records: List[dict]) -> List[str]:
    spans = _spans(records)
    if not spans:
        return []
    pids = sorted({r.get("pid") for r in spans})
    if len(pids) <= 1:
        return []
    lines = ["Worker lanes", ""]
    for pid in pids:
        lane = [r for r in spans if r.get("pid") == pid]
        names = sorted({r.get("name", "?") for r in lane})
        busy = sum(
            r.get("dur", 0.0) for r in lane if r.get("parent") is None
        )
        lines.append(
            f"  pid {pid}: {len(lane)} spans, {busy:.2f}s top-level, "
            f"[{', '.join(names[:6])}{', ...' if len(names) > 6 else ''}]"
        )
    return lines


def render_report(records: List[dict]) -> str:
    """Render the full report for a record list (see module docstring)."""
    sections = [
        section
        for section in (
            _rfn_section(records),
            _incremental_section(records),
            _fuzz_section(records),
            _serve_section(records),
            _lanes_section(records),
            _supervisor_section(records),
            _counters_section(records),
        )
        if section
    ]
    if not sections:
        return "trace contains no reportable spans\n"
    out: List[str] = []
    for section in sections:
        if out:
            out.append("")
        out.extend(section)
    return "\n".join(out) + "\n"
