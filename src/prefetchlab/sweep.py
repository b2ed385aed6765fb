"""Sliding-window evaluation: many fixed-size models per user across time.

A window of x consecutive requests is split by the training ratio, the
model is trained on the front slice, and the back slice is replayed through
the test engine. The window then slides forward and the process repeats, so
every model has the same training size and the per-size means reveal where
additional training data stops paying off (the cut-off point).

The default sliding distance ("auto") equals the test-slice length, so each
window's test requests fall inside the next window's training slice and no
request is ever tested twice at the same size. It also means the next
model need not be trained: replaying a window folds its test slice into the
model, which then holds the whole window, and forgetting the window's first
test-slice-length requests leaves exactly the model that training on the
next window's front slice would build. Only the first window of each size
is trained; an explicit sliding distance trains every window afresh.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from .engine import SplitSpec, TestOutcome, run_test_engine
from .metrics import MetricsReport, aggregate_reports, metrics_report
from .predictors import PredictorConfig, train
from .traces import UserTrace

DEFAULT_WINDOW_SIZES = (50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
DEFAULT_CUTOFF_EPSILON = 0.005
SWEEP_METRICS = ("static_precision", "static_recall", "dynamic_recall")


@dataclass(frozen=True)
class SlidingWindowSpec:
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES
    training_ratio: float = 0.8
    sliding_distance: int | str = "auto"  # "auto" = test-slice length

    def __post_init__(self):
        object.__setattr__(self, "window_sizes", tuple(self.window_sizes))
        if not self.window_sizes:
            raise ValueError("at least one window size is required")
        if not 0.0 < self.training_ratio < 1.0:
            raise ValueError("training_ratio must lie strictly between 0 and 1")
        for size in self.window_sizes:
            if size < 2:
                raise ValueError(f"window size {size} < 2")
            if math.floor(self.training_ratio * size) < 1:
                raise ValueError(
                    f"window size {size} with ratio {self.training_ratio} "
                    "leaves an empty training slice"
                )
        if self.sliding_distance != "auto":
            if not isinstance(self.sliding_distance, int) or self.sliding_distance < 1:
                raise ValueError("sliding_distance must be 'auto' or an integer >= 1")

    def training_length(self, window_size: int) -> int:
        return math.floor(self.training_ratio * window_size)

    def distance_for(self, window_size: int) -> int:
        if self.sliding_distance == "auto":
            return window_size - self.training_length(window_size)
        return self.sliding_distance

    def to_dict(self) -> dict:
        return {
            "window_sizes": list(self.window_sizes),
            "training_ratio": self.training_ratio,
            "sliding_distance": self.sliding_distance,
        }


def enumerate_windows(n: int, x: int, y: int) -> list[tuple[int, int]]:
    """Half-open [start, end) ranges of length x, stepping by y, within n."""
    if x < 2:
        raise ValueError("window size must be >= 2")
    if y < 1:
        raise ValueError("sliding distance must be >= 1")
    if n < x:
        return []
    return [(start, start + x) for start in range(0, n - x + 1, y)]


@dataclass(frozen=True)
class WindowRecord:
    """One model: its window coordinates, replay outcome, metrics, and timing."""

    user_id: str
    window_size: int
    window_index: int
    outcome: TestOutcome
    metrics: MetricsReport
    elapsed_s: float

    def sort_key(self) -> tuple:
        return (self.window_size, self.user_id, self.window_index)


@dataclass(frozen=True)
class UserSweep:
    user_id: str
    records: tuple[WindowRecord, ...]
    skipped_sizes: tuple[int, ...]  # sizes this trace is too short for


@dataclass(frozen=True)
class SweepResult:
    algorithm: str
    records: tuple[WindowRecord, ...]
    # window_size -> metric name -> {"mean": float|None, "count": int, "excluded": int}
    means: dict[int, dict[str, dict]]
    skipped: dict[int, int]  # window_size -> users too short for that size
    model_count: int


def sweep_user(trace: UserTrace, config: PredictorConfig, spec: SlidingWindowSpec) -> UserSweep:
    """Evaluate every window of every size on one trace.

    Under ``sliding_distance="auto"`` one model per size slides along the
    trace (see the module docstring); its records equal those of a fresh
    model per window. A window's ``elapsed_s`` covers train and replay, or
    for a slid window ``forget`` and replay.
    """
    keys = trace.url_keys
    n = len(keys)
    trigger_depth = SplitSpec(training_ratio=spec.training_ratio).resolve_trigger_depth(config)
    slide = spec.sliding_distance == "auto"
    records: list[WindowRecord] = []
    skipped: list[int] = []
    for size in spec.window_sizes:
        distance = spec.distance_for(size)
        windows = enumerate_windows(n, size, distance)
        if not windows:
            skipped.append(size)
            continue
        cut = spec.training_length(size)
        for index, (start, end) in enumerate(windows):
            training = keys[start:start + cut]
            test = keys[start + cut:end]
            started = time.perf_counter()
            if slide and index:
                # the model holds the previous window, which began `distance` earlier
                model.forget(keys[start - distance:end - distance], distance)
            else:
                model = train(config, training)
            outcome = run_test_engine(model, test, training[-trigger_depth:], trigger_depth)
            elapsed = time.perf_counter() - started
            records.append(WindowRecord(
                user_id=trace.user_id,
                window_size=size,
                window_index=index,
                outcome=outcome,
                metrics=metrics_report(trace.user_id, config.algorithm, outcome),
                elapsed_s=elapsed,
            ))
    return UserSweep(user_id=trace.user_id, records=tuple(records), skipped_sizes=tuple(skipped))


def build_sweep_result(algorithm: str, per_user: Iterable[UserSweep],
                       spec: SlidingWindowSpec) -> SweepResult:
    """Deterministic reduction: records sorted by (size, user, index) before averaging."""
    records: list[WindowRecord] = []
    skipped = {size: 0 for size in spec.window_sizes}
    for user_sweep in per_user:
        records.extend(user_sweep.records)
        for size in user_sweep.skipped_sizes:
            skipped[size] += 1
    records.sort(key=WindowRecord.sort_key)

    means: dict[int, dict[str, dict]] = {}
    for size in spec.window_sizes:
        group = [r.metrics for r in records if r.window_size == size]
        aggregated = aggregate_reports(group)
        means[size] = {name: aggregated[name] for name in SWEEP_METRICS}
    return SweepResult(
        algorithm=algorithm,
        records=tuple(records),
        means=means,
        skipped=skipped,
        model_count=len(records),
    )


def run_sweep(traces: Mapping[str, UserTrace], config: PredictorConfig,
              spec: SlidingWindowSpec) -> SweepResult:
    per_user = (sweep_user(traces[user_id], config, spec) for user_id in sorted(traces))
    return build_sweep_result(config.algorithm, per_user, spec)


def cutoff_scan(means: Mapping[int, float | None] | Iterable[tuple[int, float | None]],
                epsilon: float = DEFAULT_CUTOFF_EPSILON) -> tuple[int, str]:
    """Locate where successive per-size mean deltas settle within epsilon.

    Returns (cutoff, trend). The cutoff is the smallest window size after
    which every successive delta is <= epsilon in absolute value (the last
    size when the series never settles). Trend is the sign of last - first,
    flattened when within epsilon. Undefined means carry no signal and are
    dropped before scanning.
    """
    items = means.items() if isinstance(means, Mapping) else means
    points = sorted((size, value) for size, value in items if value is not None)
    if len(points) < 2:
        raise ValueError("cutoff_scan needs at least 2 window sizes with defined means")
    sizes = [size for size, _ in points]
    values = [value for _, value in points]

    settle = 0
    for i in range(len(values) - 1):
        if abs(values[i + 1] - values[i]) > epsilon:
            settle = i + 1
    cutoff = sizes[settle]

    total = values[-1] - values[0]
    if abs(total) <= epsilon:
        trend = "flat"
    elif total > 0:
        trend = "positive"
    else:
        trend = "negative"
    return cutoff, trend
