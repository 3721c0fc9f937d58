"""Arithmetic of the benchmark's metrics (tested by tests/test_stats.py).

Conventions:
  * A percentile is the nearest-rank value: the smallest sample with at
    least q of the samples at or below it. The median is the 50th.
  * A failed or refused operation has no latency; it counts as +inf, so it
    misses every latency limit and can only push a percentile up.
  * A tail percentile is reported only when at least MIN_BEYOND samples lie
    strictly beyond it.
"""

import math

MIN_BEYOND = 10
TAIL_LEVELS = (0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50)


def latencies(values, ok):
    """Latency samples with every failed operation counted as +inf."""
    return [v if good else math.inf for v, good in zip(values, ok)]


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample list."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(samples):
    return percentile(samples, 0.5)


def mean(samples):
    if not samples:
        raise ValueError("mean of no samples")
    return sum(samples) / len(samples)


def beyond(samples, value):
    """How many samples lie strictly beyond `value`."""
    return sum(1 for s in samples if s > value)


def tail(samples, levels=TAIL_LEVELS, min_beyond=MIN_BEYOND):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (level, value, beyond_count), or None when no level qualifies.
    """
    for q in levels:
        value = percentile(samples, q)
        count = beyond(samples, value)
        if count >= min_beyond:
            return q, value, count
    return None


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    `spans` are Chrome trace-event dicts ("ts", "dur" in microseconds and
    args "span" / "parent" ids). Returns {span id: self seconds}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["args"]["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        kids = [(c["ts"], c["ts"] + c["dur"])
                for c in children.get(s["args"]["span"], [])]
        out[s["args"]["span"]] = (s["dur"] - covered(kids, lo, hi)) * 1e-6
    return out


def self_times_by_name(spans, name):
    """Self seconds of every span called `name`, in trace order."""
    selves = self_times(spans)
    return [selves[s["args"]["span"]] for s in spans if s["name"] == name]


def fail_rate(attempted, failed_ops, failed_checks):
    """Failed operations plus failed correctness checks, per attempt."""
    if attempted < 1:
        raise ValueError("fail rate needs at least one attempt")
    return (failed_ops + failed_checks) / attempted
