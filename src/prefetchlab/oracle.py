"""Brute-force reference replay used to cross-check the fast engine.

Everything here is written for obviousness, not speed: no model objects,
no incremental state. At every test step the predictions are recomputed
from scratch by scanning the full history (training plus the test requests
replayed so far). If the engine's incremental bookkeeping drifts from the
definitions in any way, the two disagree on some random trace.

Deliberately duplicates logic that lives in predictors/engine; do not
"simplify" by importing from there.
"""

from __future__ import annotations

from typing import Sequence

from .engine import TestOutcome
from .predictors import PredictorConfig


def _rank(scored: dict[str, float], threshold: float | None) -> list[str]:
    if threshold is not None:
        scored = {k: s for k, s in scored.items() if s >= threshold}
    return [k for k, _ in sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))]


def _followers_within(hist: Sequence[str], source: str, window: int) -> dict[str, int]:
    """How often each key appears at most `window` positions after `source`."""
    counts: dict[str, int] = {}
    for i, key in enumerate(hist):
        if key != source:
            continue
        for follower in hist[i + 1:i + 1 + window]:
            counts[follower] = counts.get(follower, 0) + 1
    return counts


def predict_dg(config: PredictorConfig, hist: Sequence[str], context: Sequence[str]) -> list[str]:
    if not context:
        return []
    source = context[-1]
    occurrences = sum(1 for key in hist if key == source)
    followers = _followers_within(hist, source, config.lookahead_window)
    if not followers or not occurrences:
        return []
    weights = {key: count / occurrences for key, count in followers.items()}
    return _rank(weights, config.confidence_threshold)


def predict_mp(config: PredictorConfig, hist: Sequence[str], context: Sequence[str]) -> list[str]:
    if not context:
        return []
    followers = _followers_within(hist, context[-1], config.lookahead_window)
    if not followers:
        return []
    return _rank({k: float(n) for k, n in followers.items()}, None)[:config.top_n]


def predict_ppm(config: PredictorConfig, hist: Sequence[str], context: Sequence[str]) -> list[str]:
    tail = list(context)[-config.ppm_order:]
    n = len(hist)
    for length in range(len(tail), 0, -1):
        suffix = tail[-length:]
        first = suffix[0]
        occurrences = 0
        followers: dict[str, int] = {}
        for i in range(n - length + 1):
            if hist[i] != first or list(hist[i:i + length]) != suffix:
                continue
            occurrences += 1
            if i + length < n:
                follower = hist[i + length]
                followers[follower] = followers.get(follower, 0) + 1
        if occurrences == 0 or not followers:
            continue  # shorter-context fallback, as in the trie walk
        probs = {key: count / occurrences for key, count in followers.items()}
        return _rank(probs, config.confidence_threshold)
    return []


def predict_naive(config: PredictorConfig, hist: Sequence[str], context: Sequence[str]) -> list[str]:
    seen: dict[str, None] = {}
    for key in hist:
        seen.setdefault(key, None)
    return list(seen)


_PREDICTORS = {"dg": predict_dg, "mp": predict_mp, "ppm": predict_ppm, "naive": predict_naive}


def oracle_predict(config: PredictorConfig, hist: Sequence[str],
                   context: Sequence[str]) -> list[str]:
    return _PREDICTORS[config.algorithm](config, hist, context)


def oracle_run(config: PredictorConfig, training: Sequence[str],
               test: Sequence[str]) -> TestOutcome:
    """Replay the prefetch loop with from-scratch predictions at every step."""
    trigger_depth = config.ppm_order if config.algorithm == "ppm" else 1
    hist = list(training)
    cache: set[str] = set()
    hit_set: set[str] = set()
    miss_set: set[str] = set()
    prefetch_count = hit_count = miss_count = 0

    for current in test:
        context = hist[-trigger_depth:] if trigger_depth else []
        for candidate in oracle_predict(config, hist, context):
            if candidate not in cache:
                cache.add(candidate)
                prefetch_count += 1
        if current in cache:
            hit_count += 1
            hit_set.add(current)
        else:
            miss_count += 1
            miss_set.add(current)
        hist.append(current)

    return TestOutcome(
        cache_size=len(cache),
        hit_set=frozenset(hit_set),
        miss_set=frozenset(miss_set),
        prefetch_count=prefetch_count,
        hit_count=hit_count,
        miss_count=miss_count,
    )


def count_previously_seen(training: Sequence[str], test: Sequence[str]) -> int:
    """Test requests whose url_key occurred anywhere earlier in the trace."""
    seen = set(training)
    count = 0
    for key in test:
        if key in seen:
            count += 1
        seen.add(key)
    return count
