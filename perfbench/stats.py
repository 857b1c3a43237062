"""Arithmetic shared by the benchmark and its sweep tool.

Everything here is pure: no clock, no files, no library imports, so the unit
tests in ``test_stats.py`` pin it on synthetic data.
"""
from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: a timing percentile is reported only with at least this many samples above it
TAIL_MIN_ABOVE = 10


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ``TAIL_MIN_ABOVE`` samples above
    it under the nearest-rank rule, or None when there are too few samples
    (fewer than 2 * TAIL_MIN_ABOVE) for it to say more than the median."""
    if count < 2 * TAIL_MIN_ABOVE:
        return None
    p = (100 * (count - TAIL_MIN_ABOVE)) // count
    while count - math.ceil(p * count / 100) < TAIL_MIN_ABOVE:
        p -= 1
    return p


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The p-th percentile by nearest rank: the smallest value with at least
    p% of the samples at or below it."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(math.ceil(p * len(ordered) / 100), 1)
    return ordered[rank - 1]


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with n=4, its default method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.

    ``spans`` holds (name, start, end, parent) tuples, parent being the index
    of the enclosing span or -1.  Children are clipped to the parent interval
    and overlapping children are counted once.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare_runs(parent: Mapping[str, Sequence[float]],
                 change: Mapping[str, Sequence[float]],
                 specs: Iterable[Mapping]) -> list[dict]:
    """Judge each end-to-end metric of two sets of runs of one workload.

    ``parent`` and ``change`` map metric name to the values of their runs;
    ``specs`` are the ``end_to_end`` entries of BENCHMARK.json.  A metric is
    "regressed" when the change's median is worse than the parent's by more
    than its bound, and "unresolved" when not regressed but the parent's own
    spread exceeds the bound, unless every change run beats every parent run.
    """
    rows = []
    for spec in specs:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        if name not in parent or name not in change:
            continue
        a, b = list(parent[name]), list(change[name])
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = worse_by(med_a, med_b, better)
        spread = relative_spread(a) if len(a) >= 2 else math.inf
        if better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        if worse > bound:
            verdict = "regressed"
        elif spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"metric": name, "parent_median": med_a,
                     "change_median": med_b, "worse_by": worse,
                     "parent_spread": spread, "bound": bound,
                     "verdict": verdict})
    return rows
