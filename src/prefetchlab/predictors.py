"""The four prediction engines: DG, PPM, MP, and the Naive baseline.

All four share the same life cycle: ``model.update(key)`` feeds one more
observed request into the model (the dynamic update the replay engine
performs after scoring each test request), ``model.predict(context)`` ranks
candidate next requests, and ``train(config, sequence)`` is nothing more
than ``update`` folded over the sequence from an empty model, so there is
one update path.

``model.forget(stream, count)`` is the exact inverse of folding a prefix:
given the key sequence the model was folded over, oldest first, it removes
the contribution of the first ``count`` keys and leaves the state that
training on ``stream[count:]`` would build. Counts that reach zero are
deleted rather than kept at zero, so the canonical serializations of the
two models are equal; the sliding-window sweep relies on this to move a
model forward instead of retraining it.

Ranking is deterministic everywhere: candidates sort by score descending,
then lexicographically by url_key. The Naive baseline is the exception by
definition: it predicts every previously seen key in first-seen order.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

ALGORITHMS = ("dg", "ppm", "mp", "naive")

# Stand-ins for the originally published tunings; every value is
# configurable and the run report records what was used.
DEFAULT_LOOKAHEAD_WINDOW = 4
DEFAULT_DG_THRESHOLD = 0.25
DEFAULT_PPM_THRESHOLD = 0.1
DEFAULT_PPM_ORDER = 2
DEFAULT_TOP_N = 5

MODEL_FORMAT = "prefetchlab-model/v1"


@dataclass(frozen=True)
class PredictorConfig:
    """Algorithm choice plus its thresholds.

    ``confidence_threshold`` of None means the per-algorithm default
    (0.25 for DG arc weights, 0.1 for PPM branch probabilities). Fields
    irrelevant to the chosen algorithm are validated but ignored.
    """

    algorithm: str
    lookahead_window: int = DEFAULT_LOOKAHEAD_WINDOW
    confidence_threshold: float | None = None
    ppm_order: int = DEFAULT_PPM_ORDER
    top_n: int = DEFAULT_TOP_N

    def __post_init__(self):
        object.__setattr__(self, "algorithm", self.algorithm.lower())
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.lookahead_window < 1:
            raise ValueError("lookahead_window must be >= 1")
        if self.confidence_threshold is not None and not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if self.ppm_order < 1:
            raise ValueError("ppm_order must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")

    @property
    def effective_threshold(self) -> float:
        if self.confidence_threshold is not None:
            return self.confidence_threshold
        return DEFAULT_DG_THRESHOLD if self.algorithm == "dg" else DEFAULT_PPM_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "lookahead_window": self.lookahead_window,
            "confidence_threshold": self.effective_threshold,
            "ppm_order": self.ppm_order,
            "top_n": self.top_n,
        }


def _ranked(scored: dict[str, float], threshold: float | None = None) -> list[str]:
    """Scores -> url_keys, score descending then lexicographic."""
    items = scored.items()
    if threshold is not None:
        items = [(k, s) for k, s in items if s >= threshold]
    return [k for k, _ in sorted(items, key=lambda kv: (-kv[1], kv[0]))]


def _add_arcs(arcs: dict[str, dict[str, int]], sources: Iterable[str], target: str) -> None:
    """Count one arc from each of ``sources`` to ``target``."""
    for source in sources:
        targets = arcs.get(source)
        if targets is None:
            arcs[source] = {target: 1}
        else:
            targets[target] = targets.get(target, 0) + 1


def _forget_arcs(arcs: dict[str, dict[str, int]], stream: Sequence[str],
                 count: int, window: int) -> None:
    """Undo the arcs from each of the first ``count`` keys to the ``window`` keys after it."""
    for position in range(count):
        successors = stream[position + 1:position + 1 + window]
        if not successors:
            continue
        source = stream[position]
        targets = arcs[source]
        for target in successors:
            _decrement(targets, target)
        if not targets:
            del arcs[source]


def _decrement(counts: dict[str, int], key: str) -> None:
    """Take one from ``counts[key]``, deleting the entry when it reaches zero."""
    left = counts[key] - 1
    if left:
        counts[key] = left
    else:
        del counts[key]


def _trim(recent: deque[str], length: int) -> None:
    """Keep at most the last ``length`` keys: a shorter stream leaves a shorter window."""
    while len(recent) > length:
        recent.popleft()


class DGModel:
    """Directed dependency graph: arc (a, b) counts how often b followed a
    within the lookahead window; arc weight is count / occurrences(a)."""

    algorithm = "dg"

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.node_counts: dict[str, int] = {}
        self.arc_counts: dict[str, dict[str, int]] = {}
        self.pending_window: deque[str] = deque(maxlen=config.lookahead_window)

    def update(self, key: str) -> None:
        _add_arcs(self.arc_counts, self.pending_window, key)
        self.node_counts[key] = self.node_counts.get(key, 0) + 1
        self.pending_window.append(key)

    def forget(self, stream: Sequence[str], count: int) -> None:
        _forget_arcs(self.arc_counts, stream, count, self.config.lookahead_window)
        for key in stream[:count]:
            _decrement(self.node_counts, key)
        _trim(self.pending_window, len(stream) - count)

    def predict(self, context: Sequence[str]) -> list[str]:
        if not context:
            return []
        source = context[-1]
        targets = self.arc_counts.get(source)
        occurrences = self.node_counts.get(source)
        if not targets or not occurrences:
            return []
        weights = {t: n / occurrences for t, n in targets.items()}
        return _ranked(weights, self.config.effective_threshold)

    def state_dict(self) -> dict:
        return {
            "node_counts": dict(sorted(self.node_counts.items())),
            "arc_counts": {s: dict(sorted(t.items()))
                           for s, t in sorted(self.arc_counts.items())},
            "pending_window": list(self.pending_window),
        }


class _TrieNode:
    __slots__ = ("count", "children")

    def __init__(self):
        self.count = 0
        self.children: dict[str, _TrieNode] = {}


class PPMModel:
    """Order-m Markov predictor over a trie of request contexts.

    Every contiguous subsequence of length <= ppm_order + 1 is a path in
    the trie; a node's count is the number of occurrences of its path.
    Prediction matches the longest trailing context suffix whose node has
    children, falling back to shorter suffixes when a node is missing or
    childless.
    """

    algorithm = "ppm"

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.root = _TrieNode()
        self.recent_context: deque[str] = deque(maxlen=config.ppm_order)

    def update(self, key: str) -> None:
        self.root.count += 1
        path = list(self.recent_context)
        path.append(key)
        # paths of length 1..order+1, all ending at `key`
        for start in range(len(path) - 1, -1, -1):
            node = self.root
            for path_key in path[start:]:
                child = node.children.get(path_key)
                if child is None:
                    child = node.children[path_key] = _TrieNode()
                node = child
            node.count += 1
        self.recent_context.append(key)

    def forget(self, stream: Sequence[str], count: int) -> None:
        depth = self.config.ppm_order + 1
        for start in range(count):
            # the paths of length 1..order+1 that begin at `start`
            node = self.root
            for key in stream[start:start + depth]:
                child = node.children[key]
                if child.count == 1:
                    # every longer path through this node began here too
                    del node.children[key]
                    break
                child.count -= 1
                node = child
        self.root.count -= count
        _trim(self.recent_context, len(stream) - count)

    def _lookup(self, path: Sequence[str]) -> _TrieNode | None:
        node = self.root
        for key in path:
            node = node.children.get(key)
            if node is None:
                return None
        return node

    def predict(self, context: Sequence[str]) -> list[str]:
        tail = list(context)[-self.config.ppm_order:]
        for length in range(len(tail), 0, -1):
            node = self._lookup(tail[-length:])
            if node is None or not node.children:
                continue
            probs = {key: child.count / node.count for key, child in node.children.items()}
            return _ranked(probs, self.config.effective_threshold)
        return []

    def state_dict(self) -> dict:
        def encode(node: _TrieNode) -> dict:
            return {
                "count": node.count,
                "children": {k: encode(c) for k, c in sorted(node.children.items())},
            }
        return {
            "trie": encode(self.root),
            "recent_context": list(self.recent_context),
        }


class MPModel:
    """Per-request table of the most popular successors within the window."""

    algorithm = "mp"

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.successor_lists: dict[str, dict[str, int]] = {}
        self.pending_window: deque[str] = deque(maxlen=config.lookahead_window)

    def update(self, key: str) -> None:
        _add_arcs(self.successor_lists, self.pending_window, key)
        self.pending_window.append(key)

    def forget(self, stream: Sequence[str], count: int) -> None:
        _forget_arcs(self.successor_lists, stream, count, self.config.lookahead_window)
        _trim(self.pending_window, len(stream) - count)

    def predict(self, context: Sequence[str]) -> list[str]:
        if not context:
            return []
        successors = self.successor_lists.get(context[-1])
        if not successors:
            return []
        counts = {k: float(n) for k, n in successors.items()}
        return _ranked(counts)[: self.config.top_n]

    def state_dict(self) -> dict:
        return {
            "successor_lists": {s: dict(sorted(t.items()))
                                for s, t in sorted(self.successor_lists.items())},
            "pending_window": list(self.pending_window),
        }


class NaiveModel:
    """Baseline: every request seen in the past is predicted to reappear."""

    algorithm = "naive"

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.seen: dict[str, None] = {}  # insertion-ordered set

    def update(self, key: str) -> None:
        self.seen.setdefault(key, None)

    def forget(self, stream: Sequence[str], count: int) -> None:
        # first-seen order is part of the state, so rebuild it
        self.seen = dict.fromkeys(stream[count:])

    def predict(self, context: Sequence[str]) -> list[str]:
        return list(self.seen)

    def state_dict(self) -> dict:
        return {"seen": list(self.seen)}


PredictionModel = DGModel | PPMModel | MPModel | NaiveModel

_MODEL_CLASSES = {"dg": DGModel, "ppm": PPMModel, "mp": MPModel, "naive": NaiveModel}


def empty_model(config: PredictorConfig) -> PredictionModel:
    return _MODEL_CLASSES[config.algorithm](config)


def train(config: PredictorConfig, training: Iterable[str]) -> PredictionModel:
    """Fold ``update`` over a (possibly empty) training sequence from an empty model."""
    model = empty_model(config)
    for key in training:
        model.update(key)
    return model


def model_to_dict(model: PredictionModel) -> dict:
    """Versioned, JSON-ready snapshot of the full model state."""
    return {
        "format": MODEL_FORMAT,
        "algorithm": model.algorithm,
        "config": model.config.to_dict(),
        "state": model.state_dict(),
    }


def model_to_json(model: PredictionModel) -> str:
    """Canonical JSON serialization (stable key order) for fixture pinning."""
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
