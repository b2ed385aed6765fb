"""Accuracy metrics computed from replay outcomes.

All three metrics are pure functions of a TestOutcome. Undefined values
(0/0 cases) are represented as None, reported as such, and excluded from
averages -- silently coercing them to zero would bias aggregate means.

Because a url_key can legitimately land in both hit_set and miss_set
(first occurrence missed, later occurrence hit), static recall is reported
in two readings: the plain formula, and a strict variant whose denominator
uses miss_set minus hit_set so the two sets are disjoint.

A dynamic counterpart to static precision is deliberately not computed:
its hit reward is unbounded over time, so repeated hits of a single useful
request would wash out the penalty for any number of useless prefetches.

Means add their values left to right from 0.0 (``traces._running_sum``),
not with builtin ``sum()``: that is compensated from Python 3.12 on, so the
last digit of a mean, and the report bytes, would depend on the interpreter.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .engine import TestOutcome
from .traces import _running_sum

METRIC_NAMES = ("static_precision", "static_recall", "static_recall_strict", "dynamic_recall")
NORMALIZED_NAMES = ("normalized_static_recall", "normalized_dynamic_recall")


def static_precision(o: TestOutcome) -> float | None:
    """Unique prefetched requests that were used, over all prefetches."""
    if o.prefetch_count == 0:
        return None
    return len(o.hit_set) / o.prefetch_count


def static_recall(o: TestOutcome) -> float | None:
    """Unique requests served from cache, over all unique test requests."""
    denom = len(o.hit_set) + len(o.miss_set)
    if denom == 0:
        return None
    return len(o.hit_set) / denom


def static_recall_strict(o: TestOutcome) -> float | None:
    """Static recall with the overlap removed from the miss side."""
    misses = len(o.miss_set - o.hit_set)
    denom = len(o.hit_set) + misses
    if denom == 0:
        return None
    return len(o.hit_set) / denom


def dynamic_recall(o: TestOutcome) -> float | None:
    """Hits over all replayed test requests (occurrence level)."""
    total = o.hit_count + o.miss_count
    if total == 0:
        return None
    return o.hit_count / total


class MetricsReport(NamedTuple):
    """Per-run metric values plus enough identity to pair runs for normalization."""

    user_id: str
    algorithm: str
    static_precision: float | None
    static_recall: float | None
    static_recall_strict: float | None
    dynamic_recall: float | None
    normalized_static_recall: float | None = None
    normalized_dynamic_recall: float | None = None


def metrics_report(user_id: str, algorithm: str, outcome: TestOutcome) -> MetricsReport:
    return MetricsReport(
        user_id=user_id,
        algorithm=algorithm,
        static_precision=static_precision(outcome),
        static_recall=static_recall(outcome),
        static_recall_strict=static_recall_strict(outcome),
        dynamic_recall=dynamic_recall(outcome),
    )


def _ratio(target: float | None, baseline: float | None) -> float | None:
    if target is None or baseline is None or baseline == 0:
        return None
    return target / baseline


def normalize_against_naive(target: MetricsReport, naive: MetricsReport) -> MetricsReport:
    """Divide the target's recalls by the Naive run's raw recalls.

    Both reports must come from the same trace and split; a user mismatch
    or a non-Naive baseline is a contract error.
    """
    if naive.algorithm != "naive":
        raise ValueError(f"baseline report is for {naive.algorithm!r}, expected the naive run")
    if target.user_id != naive.user_id:
        raise ValueError(f"run identity mismatch: {target.user_id!r} vs {naive.user_id!r}")
    return target._replace(
        normalized_static_recall=_ratio(target.static_recall, naive.static_recall),
        normalized_dynamic_recall=_ratio(target.dynamic_recall, naive.dynamic_recall),
    )


def aggregate_reports(reports: Iterable[MetricsReport]) -> dict[str, dict]:
    """Unweighted mean of each metric; undefined values excluded and counted."""
    reports = list(reports)
    out: dict[str, dict] = {}
    for name in METRIC_NAMES + NORMALIZED_NAMES:
        values = [getattr(r, name) for r in reports]
        defined = [v for v in values if v is not None]
        out[name] = {
            "mean": (_running_sum(defined) / len(defined)) if defined else None,
            "count": len(defined),
            "excluded": len(values) - len(defined),
        }
    return out
