"""Replay engine: train/test split and the cache-simulation loop.

The replay loop is deliberately literal. For each test request, in order:

1. predict candidates from the trailing previous requests,
2. prefetch every candidate not already cached (cache insert, no I/O),
3. score the current request as hit or miss against the cache,
4. feed the current request into the model (dynamic update).

The cache is unbounded and never evicts or expires, so the number of
prefetches always equals the final cache size. Because the hit check runs
after this step's prefetch, a model that predicts the current request from
its predecessor scores the hit in the same step. A url_key can appear in
both miss_set and hit_set (first occurrence missed, a later one hit); the
metrics module documents both readings.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .predictors import PredictorConfig, PredictionModel, train
from .pruning import PruneSpec, PruneResult, prune
from .traces import UserTrace


class TraceTooShortError(Exception):
    """Skip signal: the trace cannot yield a non-empty train/test split."""


@dataclass(frozen=True)
class SplitSpec:
    """Training ratio plus how many trailing previous requests trigger predictions.

    trigger_depth of None resolves per algorithm: ppm_order for PPM
    (context-sensitive), 1 for everything else.
    """

    training_ratio: float = 0.8
    trigger_depth: int | None = None

    def __post_init__(self):
        if not 0.0 < self.training_ratio < 1.0:
            raise ValueError("training_ratio must lie strictly between 0 and 1")
        if self.trigger_depth is not None and self.trigger_depth < 1:
            raise ValueError("trigger_depth must be >= 1")

    def resolve_trigger_depth(self, config: PredictorConfig) -> int:
        if self.trigger_depth is not None:
            return self.trigger_depth
        return config.ppm_order if config.algorithm == "ppm" else 1

    def to_dict(self) -> dict:
        return {"training_ratio": self.training_ratio, "trigger_depth": self.trigger_depth}


@dataclass(frozen=True)
class TestOutcome:
    """The six replay outputs: cache size, hit/miss sets, and the three counters."""

    __test__ = False  # not a pytest class, despite the name

    cache_size: int
    hit_set: frozenset[str]
    miss_set: frozenset[str]
    prefetch_count: int
    hit_count: int
    miss_count: int

    def to_dict(self) -> dict:
        return {
            "cache_size": self.cache_size,
            "hit_set": sorted(self.hit_set),
            "miss_set": sorted(self.miss_set),
            "prefetch_count": self.prefetch_count,
            "hit_count": self.hit_count,
            "miss_count": self.miss_count,
        }


def split(trace: UserTrace, spec: SplitSpec) -> tuple[list[str], list[str]]:
    """First floor(ratio * n) url_keys train, the rest test.

    Raises TraceTooShortError when the trace cannot produce both a
    non-empty test slice and at least one preceding request.
    """
    n = len(trace)
    if n < 2:
        raise TraceTooShortError(f"trace of length {n} cannot be split")
    cut = math.floor(spec.training_ratio * n)
    training = trace.url_keys[:cut]
    test = trace.url_keys[cut:]
    if not test:  # unreachable for 0 < ratio < 1, kept as a guard
        raise TraceTooShortError("empty test slice")
    return training, test


def run_test_engine(model: PredictionModel, test: Sequence[str],
                    pre_context: Sequence[str], trigger_depth: int) -> TestOutcome:
    """Replay the test sequence through the prefetch cache, updating the model.

    ``pre_context`` is the tail of the training sequence; it supplies the
    previous requests for the first test element. The model is mutated.
    """
    cache: set[str] = set()
    hit_set: set[str] = set()
    miss_set: set[str] = set()
    prefetch_count = hit_count = miss_count = 0
    context: deque[str] = deque(pre_context, maxlen=trigger_depth)

    for current in test:
        for candidate in model.predict(context):
            if candidate not in cache:
                cache.add(candidate)
                prefetch_count += 1
        if current in cache:
            hit_count += 1
            hit_set.add(current)
        else:
            miss_count += 1
            miss_set.add(current)
        model.update(current)
        context.append(current)

    return TestOutcome(
        cache_size=len(cache),
        hit_set=frozenset(hit_set),
        miss_set=frozenset(miss_set),
        prefetch_count=prefetch_count,
        hit_count=hit_count,
        miss_count=miss_count,
    )


@dataclass(frozen=True)
class RunResult:
    outcome: TestOutcome
    elapsed_s: float
    prune_result: PruneResult | None = None


def run_user(trace: UserTrace, config: PredictorConfig, spec: SplitSpec,
             prune_spec: PruneSpec | None = None) -> RunResult:
    """Split, train, and replay one user; wall-clock covers train + replay.

    With a prune_spec, only the model's training input is pruned; the
    trigger context stays the tail of the real (unpruned) request stream,
    and the test slice is never touched.
    """
    training, test = split(trace, spec)
    trigger_depth = spec.resolve_trigger_depth(config)
    pre_context = training[-trigger_depth:]

    prune_result = None
    model_input = training
    if prune_spec is not None and training:
        prune_result = prune(training, prune_spec)
        model_input = prune_result.kept_training

    started = time.perf_counter()
    model = train(config, model_input)
    outcome = run_test_engine(model, test, pre_context, trigger_depth)
    elapsed = time.perf_counter() - started
    return RunResult(outcome=outcome, elapsed_s=elapsed, prune_result=prune_result)
