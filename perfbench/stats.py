"""Order statistics and span arithmetic used by the benchmark."""

from __future__ import annotations

import math


def percentile(values, q):
    """q-th percentile (0 <= q <= 100) with linear interpolation between
    order statistics, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def group_median(samples):
    """Mean over groups of each group's median.

    `samples` maps a group key (the initial-data family of a sim pass) to
    the values measured for it.  Every run measures every group, so the
    mean of group medians does not depend on how many passes of each group
    fitted in the run."""
    meds = [median(v) for v in samples.values() if v]
    if not meds:
        raise ValueError("no samples in any group")
    return sum(meds) / len(meds)


def self_times(spans):
    """Self time of each span: its duration minus the time covered by its
    direct children.  Spans come from one thread, so siblings never
    overlap and the children's durations add up to the covered part.

    `spans` is a list of dicts with keys start, end and parent (index into
    the list, or None)."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
