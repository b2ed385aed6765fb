"""Sliding-window evaluation: many fixed-size models per user across time.

A window of x consecutive requests is split by the training ratio, the
model is trained on the front slice, and the back slice is replayed through
the test engine. The window then slides forward and the process repeats, so
every model has the same training size and the per-size means reveal where
additional training data stops paying off (the cut-off point).

Every window slides forward by its test-slice length, so each window's
test requests fall inside the next window's training slice and no request
is ever tested twice at the same size. It also means the next model need
not be trained: replaying a window folds its test slice into the model,
which then holds the whole window, and forgetting the window's first
test-slice-length requests leaves exactly the model that training on the
next window's front slice would build. Only the first window of each size
is trained, and ``forget`` runs once per slide.

DG and MP with the same lookahead window read one arc table, and Naive's seen
set is the key set of the same model's node counts: given DG and MP configs
that agree on the window, ``sweep_user`` slides one DG model per size for DG,
MP and, when it runs, Naive, and replays its windows through
``run_dg_table_engine``. Every other config slides its own model: a PPM model
replays through ``run_ppm_pass``, since a trained or slid window model's recent
context is its window's trigger context, and a lone DG, MP or Naive model
through ``run_test_engine``. Both passes rank only the rows MP cuts. A user's
sweep under a config is the tuple of its window records; a trace shorter than a
size has no window, and no record, of it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple, Sequence

from .engine import SplitSpec, run_dg_table_engine, run_ppm_pass, run_test_engine
from .metrics import MetricsReport, aggregate_reports, metrics_report
from .predictors import PredictorConfig, _config_algorithms, train
from .traces import UserTrace

DEFAULT_WINDOW_SIZES = (50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
DEFAULT_CUTOFF_EPSILON = 0.005
SWEEP_METRICS = ("static_precision", "static_recall", "dynamic_recall")


class SlidingWindowSpec(namedtuple("SlidingWindowSpec", "window_sizes training_ratio")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, window_sizes: Iterable[int] = DEFAULT_WINDOW_SIZES,
                training_ratio: float = 0.8):
        window_sizes = tuple(window_sizes)
        if not window_sizes:
            raise ValueError("at least one window size is required")
        split = SplitSpec(training_ratio)  # the training-slice rule, and its ratio check
        for i, size in enumerate(window_sizes):
            if size < 2:
                raise ValueError(f"window size {size} < 2")
            if split.training_length(size) < 1:
                raise ValueError(
                    f"window size {size} with ratio {training_ratio} "
                    "leaves an empty training slice"
                )
            if size in window_sizes[:i]:
                raise ValueError(f"window size {size} is given twice")
        return super().__new__(cls, window_sizes, training_ratio)

    def training_length(self, window_size: int) -> int:
        return SplitSpec(self.training_ratio).training_length(window_size)


def enumerate_windows(n: int, x: int, y: int) -> list[tuple[int, int]]:
    """Half-open [start, end) ranges of length x, stepping by y, within n."""
    if x < 2:
        raise ValueError("window size must be >= 2")
    if y < 1:
        raise ValueError("sliding distance must be >= 1")
    if n < x:
        return []
    return [(start, start + x) for start in range(0, n - x + 1, y)]


class WindowRecord(NamedTuple):
    """One model: its window coordinates, metrics (which name the user), and timing.

    The replay outcome is reduced to its metrics at once, so no window's
    hit and miss sets stay alive until the per-size means are taken.
    """

    window_size: int
    window_index: int
    metrics: MetricsReport
    elapsed_s: float

    def sort_key(self) -> tuple:
        return (self.window_size, self.metrics.user_id, self.window_index)


class SweepResult(NamedTuple):
    records: tuple[WindowRecord, ...]
    # window_size -> metric name -> {"mean": float|None, "count": int, "excluded": int}
    means: dict[int, dict[str, dict]]
    skipped: dict[int, int]  # window_size -> users too short for that size


def sweep_user(trace: UserTrace, configs: Sequence[PredictorConfig],
               spec: SlidingWindowSpec) -> list[tuple[WindowRecord, ...]]:
    """Evaluate every window of every size on one trace; per config, in order, its records.

    One model per size slides along the trace (see the module docstring); its
    records equal those of a fresh model per window. A window's ``elapsed_s``
    covers train and replay, or for a slid window ``forget`` and replay, split
    evenly over the configs that share the window's model.
    """
    algorithms = _config_algorithms(configs)
    by_algorithm = dict(zip(algorithms, configs))
    dg, mp = by_algorithm.get("dg"), by_algorithm.get("mp")
    sweeps: dict[str, tuple[WindowRecord, ...]] = {}
    if dg and mp and dg.lookahead_window == mp.lookahead_window:
        shared = ("dg", "mp", "naive") if "naive" in by_algorithm else ("dg", "mp")
        sweeps.update(_slide(trace, dg, spec, shared, mp.top_n))
    for config in configs:
        if config.algorithm not in sweeps:
            sweeps.update(_slide(trace, config, spec, (config.algorithm,)))
    return [sweeps[algorithm] for algorithm in algorithms]


def _slide(trace: UserTrace, config: PredictorConfig, spec: SlidingWindowSpec,
           algorithms: tuple[str, ...], top_n: int | None = None
           ) -> dict[str, tuple[WindowRecord, ...]]:
    """Slide one model of ``config`` per size along the trace, replay each window once
    (through the table pass, given MP's ``top_n``) and return each algorithm's window
    records. Each window's time is split evenly over its records."""
    keys = trace.url_keys
    depth = config.trigger_depth
    records: dict[str, list[WindowRecord]] = {algorithm: [] for algorithm in algorithms}
    for size in spec.window_sizes:
        cut = spec.training_length(size)
        distance = size - cut  # the test-slice length
        for index, (start, end) in enumerate(enumerate_windows(len(keys), size, distance)):
            split_at = start + cut
            started = time.perf_counter()
            if index:
                # the model holds the previous window, which began `distance` earlier
                model.forget(keys[start - distance:end - distance], distance)
            else:
                model = train(config, keys[start:split_at])
            test, context = keys[split_at:end], keys[max(start, split_at - depth):split_at]
            if top_n is not None:
                outcomes = run_dg_table_engine(model, top_n, test, context)
            elif config.algorithm == "ppm":  # the model holds its trigger context as recent_context
                outcomes = (run_ppm_pass(model, test),)
            else:
                outcomes = (run_test_engine(model, test, context, depth),)
            elapsed = (time.perf_counter() - started) / len(algorithms)
            for (algorithm, into), outcome in zip(records.items(), outcomes):
                into.append(WindowRecord(
                    window_size=size,
                    window_index=index,
                    metrics=metrics_report(trace.user_id, algorithm, outcome),
                    elapsed_s=elapsed,
                ))
    return {algorithm: tuple(r) for algorithm, r in records.items()}


def build_sweep_result(per_user: Iterable[Sequence[WindowRecord]],
                       spec: SlidingWindowSpec) -> SweepResult:
    """Deterministic reduction of each user's records: sorted by (size, user, index)."""
    records: list[WindowRecord] = []
    skipped = {size: 0 for size in spec.window_sizes}
    for user_records in per_user:
        records.extend(user_records)
        for size in skipped.keys() - {r.window_size for r in user_records}:
            skipped[size] += 1
    records.sort(key=WindowRecord.sort_key)

    means: dict[int, dict[str, dict]] = {}
    for size in spec.window_sizes:
        group = [r.metrics for r in records if r.window_size == size]
        aggregated = aggregate_reports(group)
        means[size] = {name: aggregated[name] for name in SWEEP_METRICS}
    return SweepResult(records=tuple(records), means=means, skipped=skipped)


def cutoff_scan(means: Mapping[int, float | None],
                epsilon: float = DEFAULT_CUTOFF_EPSILON) -> tuple[int, str]:
    """Locate where successive per-size mean deltas settle within epsilon.

    Returns (cutoff, trend). The cutoff is the smallest window size after
    which every successive delta is <= epsilon in absolute value (the last
    size when the series never settles). Trend is the sign of last - first,
    flattened when within epsilon. Undefined means carry no signal and are
    dropped before scanning. A negative or NaN epsilon raises ValueError.
    """
    if not epsilon >= 0:  # False for nan too
        raise ValueError(f"cutoff_scan needs epsilon >= 0, got {epsilon}")
    points = sorted((size, value) for size, value in means.items() if value is not None)
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
