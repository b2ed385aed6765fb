"""Replay engine: train/test split and the cache-simulation loop.

The replay loop is deliberately literal. For each test request, in order:

1. predict candidates from the trailing previous requests,
2. prefetch every candidate not yet cached, in one ``set.update`` (no I/O);
   a model may return the very list it returned on the previous step, whose
   candidates the cache already holds, and that update is skipped,
3. flag the current request a hit if the cache holds it, else a miss
   (``_outcome`` turns both loops' flags into hit/miss sets and counts),
4. feed the current request into the model (dynamic update).

The cache is unbounded and never evicts or expires, so the number of
prefetches always equals the final cache size: ``prefetch_count`` is
``len(cache)``. Because the hit check runs after this step's prefetch, a
model that predicts the current request from its predecessor scores the hit
in the same step. A url_key can appear in both miss_set and hit_set (first
occurrence missed, a later one hit); the metrics module documents both
readings.

When DG and MP share a lookahead window, MP is DG's arc counts cut at top-n,
and Naive's seen set is the key set of DG's node counts, so
``run_dg_table_engine`` replays one DG model as all three: two caches filled
from one row, one membership test, one update per step. It and ``run_ppm_pass``
score only which keys reach the cache, without the ranked list ``predict`` builds.
"""

from __future__ import annotations

import math
import time
from collections import deque, namedtuple
from itertools import compress
from operator import not_
from typing import NamedTuple, Sequence

from .predictors import DGModel, PPMModel, PredictorConfig, PredictionModel, _ranked, train
from .pruning import PruneSpec, PruneResult, prune
from .traces import UserTrace


class TraceTooShortError(Exception):
    """Skip signal: the trace cannot yield a non-empty train/test split."""


class SplitSpec(namedtuple("SplitSpec", "training_ratio")):
    """The training ratio: the first floor(ratio * n) requests train, the rest test.

    How many trailing previous requests trigger each prediction is not part of
    the split: it follows from the model, as ``PredictorConfig.trigger_depth``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, training_ratio: float = 0.8):
        if not 0.0 < training_ratio < 1.0:
            raise ValueError("training_ratio must lie strictly between 0 and 1")
        return super().__new__(cls, training_ratio)

    def training_length(self, n: int) -> int:
        """How many of ``n`` requests train."""
        return math.floor(self.training_ratio * n)


class TestOutcome(NamedTuple):
    """The six replay outputs: cache size, hit/miss sets, and the three counters."""

    __test__ = False  # not a pytest class, despite the name

    cache_size: int
    hit_set: frozenset[str]
    miss_set: frozenset[str]
    prefetch_count: int
    hit_count: int
    miss_count: int

    def to_dict(self) -> dict:
        """The fields, with the two sets as sorted lists."""
        return {**self._asdict(), "hit_set": sorted(self.hit_set),
                "miss_set": sorted(self.miss_set)}


def split(trace: UserTrace, spec: SplitSpec) -> tuple[list[str], list[str]]:
    """First floor(ratio * n) url_keys train, the rest test.

    Raises TraceTooShortError when the trace cannot produce both a
    non-empty test slice and at least one preceding request.
    """
    n = len(trace)
    if n < 2:
        raise TraceTooShortError(f"trace of length {n} cannot be split")
    cut = spec.training_length(n)
    training = trace.url_keys[:cut]
    test = trace.url_keys[cut:]  # non-empty: ratio < 1 makes cut < n
    return training, test


def run_test_engine(model: PredictionModel, test: Sequence[str],
                    pre_context: Sequence[str], trigger_depth: int) -> TestOutcome:
    """Replay the test sequence through the prefetch cache, updating the model.

    ``pre_context`` is the tail of the training sequence; it supplies the
    previous requests for the first test element. The model is mutated.
    """
    cache: set[str] = set()
    hits: list[bool] = []
    context: deque[str] = deque(pre_context, maxlen=trigger_depth)
    predict, update, extend = model.predict, model.update, context.append
    prefetch, scored = cache.update, hits.append
    added = None  # the candidate list last added to the cache

    for current in test:
        candidates = predict(context)
        if candidates is not added:  # the same list again adds nothing: nothing is evicted
            prefetch(candidates)
            added = candidates
        scored(current in cache)
        update(current)
        extend(current)

    return _outcome(len(cache), test, hits)


def run_dg_table_engine(model: DGModel, top_n: int, test: Sequence[str],
                        pre_context: Sequence[str]
                        ) -> tuple[TestOutcome, TestOutcome, TestOutcome]:
    """Replay one DG model as DG, MP and Naive at once; returns their three outcomes.

    At each step the caches take keys of the successor row of the request just
    seen: MP's its ``top_n`` best-ranked keys, ranked only when the row is longer,
    and DG's the keys whose weight count / occurrences reaches the model's
    threshold, the whole row when 1 / occurrences does. Naive
    predicts every key seen so far, which are the keys of the node counts, so
    a request is a Naive hit when it is one of them; its cache is that key set
    at the last step's prediction. Then the model is updated once. The
    outcomes equal ``run_test_engine``'s at trigger depth 1 for the DG model,
    for an MP model with ``top_n`` and the same lookahead window, and for a
    Naive model, each trained on the same requests. The model is mutated.
    """
    arcs, occurrences, update = model.arc_counts, model.node_counts, model.update
    threshold = model.config.confidence_threshold
    dg_cache, mp_cache = set(), set()
    dg_hits, mp_hits, naive_hits = [], [], []
    source = pre_context[-1] if pre_context else None

    for current in test:
        row = arcs.get(source)
        if row:
            mp_cache.update(row if len(row) <= top_n else
                            _ranked(list(row), row.__getitem__)[:top_n])
            seen = occurrences[source]  # every count is at least 1: 1 / seen is the least weight
            dg_cache.update(row if 1 / seen >= threshold else
                            [key for key, n in row.items() if n / seen >= threshold])
        dg_hits.append(current in dg_cache)
        mp_hits.append(current in mp_cache)
        naive_hits.append(current in occurrences)
        update(current)
        source = current

    # Naive's last prediction held every key but the last request, if that was new
    naive_cache = len(occurrences) - (occurrences[test[-1]] == 1) if test else 0
    return (_outcome(len(dg_cache), test, dg_hits), _outcome(len(mp_cache), test, mp_hits),
            _outcome(naive_cache, test, naive_hits))


def run_ppm_pass(model: PPMModel, test: Sequence[str]) -> TestOutcome:
    """Replay a PPM model from its own recent context; returns the outcome, which equals
    ``run_test_engine(model, test, model.recent_context, ppm_order)``. Each step adds,
    unranked, the passing children of the longest suffix node with children, read from
    the nodes that ``update`` keeps. The model is mutated."""
    threshold, update = model.config.confidence_threshold, model.update
    cache, hits = set(), []
    for current in test:
        for node in model._suffixes[:0:-1]:  # longest suffix first, the root left out
            if node:  # neither missing nor childless
                total = node.count  # every child's count is at least 1
                cache.update(node if 1 / total >= threshold else
                             [key for key, child in node.items()
                              if child.count / total >= threshold])
                break
        hits.append(current in cache)
        update(current)
    return _outcome(len(cache), test, hits)


def _outcome(cache_size: int, test: Sequence[str], hits: list[bool]) -> TestOutcome:
    """The outcome of a replay of ``test`` whose i-th request hit when ``hits[i]``."""
    hit_count = sum(hits)
    return TestOutcome(
        cache_size=cache_size,
        hit_set=frozenset(compress(test, hits)),
        miss_set=frozenset(compress(test, map(not_, hits))),
        prefetch_count=cache_size,
        hit_count=hit_count,
        miss_count=len(test) - hit_count,
    )


class RunResult(NamedTuple):
    outcome: TestOutcome
    elapsed_s: float
    prune_result: PruneResult | None = None


def run_user(trace: UserTrace, configs: Sequence[PredictorConfig], spec: SplitSpec,
             prune_spec: PruneSpec | None = None) -> list[RunResult]:
    """Split one user and prune its training slice once, then train every config
    and replay each; returns one result per config, in order. Each result times
    its own train + replay and holds the user's one PruneResult (None unpruned
    or when the training slice is empty). Only the models' training input is
    pruned: the trigger context is the tail of the unpruned training slice.

    DG, MP and Naive share one fold: the first DG or MP config of each lookahead
    window folds the input, and the later DG and MP configs of that window and
    any Naive config pass the first such model to ``train`` as ``like``. Every
    config trains before any replays, since a replay updates its model."""
    training, test = split(trace, spec)
    prune_result, model_input = None, training
    if prune_spec is not None and training:
        prune_result = prune(training, prune_spec)
        model_input = prune_result.kept_training

    models = [None] * len(configs)
    folds: dict[int, DGModel] = {}  # lookahead window -> its first DG or MP model
    # Naive last, so that it copies a DG or MP model that comes after it
    for index in sorted(range(len(configs)), key=lambda i: configs[i].algorithm == "naive"):
        config = configs[index]
        like = None
        if config.algorithm == "naive":
            like = next(iter(folds.values()), None)
        elif config.algorithm != "ppm":
            like = folds.get(config.lookahead_window)
        started = time.perf_counter()
        model = train(config, model_input, like=like)
        models[index] = model, time.perf_counter() - started
        if config.algorithm in ("dg", "mp"):
            folds.setdefault(config.lookahead_window, model)

    results = []
    for config, (model, train_s) in zip(configs, models):
        depth = config.trigger_depth
        started = time.perf_counter()
        outcome = run_test_engine(model, test, training[-depth:], depth)
        results.append(RunResult(outcome, train_s + time.perf_counter() - started, prune_result))
    return results
