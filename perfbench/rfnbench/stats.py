"""Summary statistics and metric formatting for the RFN benchmark.

Timings are reported as a median plus a *tail*: the highest percentile
that still has at least ten samples beyond it.  With ``n`` samples that
is ``100 * (1 - 10 / n)``; linear interpolation between order statistics
puts exactly ten samples above the reported value.  The percentile moves
with the sample count, so the benchmark prints it next to the value.
"""

from __future__ import annotations

import re
import resource
import sys
from typing import Dict, Sequence, Tuple

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")

#: Samples that must lie beyond the tail percentile.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    the order statistics (the "linear" method of most libraries)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ``TAIL_SAMPLES`` samples
    beyond it; 0 (the minimum) when there are too few samples for any."""
    if count <= TAIL_SAMPLES:
        return 0.0
    return 100.0 * (1.0 - TAIL_SAMPLES / count)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail rule above."""
    q = tail_percentile(len(values))
    return q, percentile(values, q)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child, in MiB (``ru_maxrss`` is KiB on Linux, bytes on
    macOS)."""
    scale = 1.0 / (1024 * 1024) if sys.platform == "darwin" else 1.0 / 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * scale


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def check_names(metrics: Dict[str, object]) -> None:
    """Raise ValueError on a metric name outside ``METRIC_NAME``."""
    bad = [name for name in metrics if not METRIC_NAME.match(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
