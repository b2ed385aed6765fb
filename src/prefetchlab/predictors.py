"""The four prediction engines: DG, PPM, MP, and the Naive baseline.

All four share the same life cycle: ``model.update(key)`` feeds one more
observed request into the model (the dynamic update the replay engine
performs after scoring each test request), ``model.predict(context)`` ranks
candidate next requests, and ``train(config, sequence)`` is nothing more
than ``update`` folded over the sequence from an empty model, so there is
one update path; given ``like``, ``train`` copies a sibling's fold (below).

``model.forget(stream, count)`` is the exact inverse of folding a prefix:
given the key sequence the model was folded over, oldest first, it removes
the contribution of the first ``count`` keys and leaves the state that
training on ``stream[count:]`` would build. Counts that reach zero are
deleted rather than kept at zero, so the canonical serializations of the
two models are equal; the sliding-window sweep relies on this to move a
model forward instead of retraining it.

Every model's state is dicts keyed by url_key: DG's ``node_counts`` and
``arc_counts`` rows hold counts, Naive's ``seen`` holds its keys in
first-seen order, and a PPM trie node is the dict of its children, with
its path's count in its one slot.

DG and MP are two readings of one table: ``arc_counts[a][b]`` counts how
often b followed a within the lookahead window. They share ``update`` and
``forget``. DG keeps the arcs whose weight count / occurrences(a) reaches the
threshold; MP is DG's arc counts, ranked and cut at top-n. Naive's seen
keys are the table's node keys. So one fold serves all three: ``train``
given a DG or MP model as ``like`` copies its table, or for Naive its node
keys, instead of folding the sequence again.

Ranking is deterministic: candidates sort by score descending, then
lexicographically by url_key; DG, PPM and MP rank by the integer count,
which for DG and PPM is the same order as by the weight count / total. By
definition the Naive baseline instead predicts every previously seen key in
first-seen order.

A list that ``predict`` returns is read-only: the caller must not change it,
and the model may return the very same object again while its prediction is
unchanged. Naive does so until a new key arrives or ``forget`` runs, which
lets the replay engine skip re-adding a list it added last. A model never
changes a list it has handed out.
"""

from __future__ import annotations

import json
from collections import deque, namedtuple
from typing import Callable, Iterable, Sequence

ALGORITHMS = ("dg", "ppm", "mp", "naive")

# Stand-ins for the originally published tunings; every value is
# configurable and the run report records what was used.
DEFAULT_LOOKAHEAD_WINDOW = 4
DEFAULT_DG_THRESHOLD = 0.25
DEFAULT_PPM_THRESHOLD = 0.1
DEFAULT_PPM_ORDER = 2
DEFAULT_TOP_N = 5

MODEL_FORMAT = "prefetchlab-model/v1"


class PredictorConfig(namedtuple("PredictorConfig", "algorithm lookahead_window "
                                 "confidence_threshold ppm_order top_n")):
    """Algorithm choice plus its thresholds.

    A ``confidence_threshold`` of None is replaced when the config is made by
    the per-algorithm default (0.25 for DG arc weights, 0.1 for the others),
    so the field always holds the threshold the model uses. Fields irrelevant
    to the chosen algorithm are validated but ignored.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, algorithm: str, lookahead_window: int = DEFAULT_LOOKAHEAD_WINDOW,
                confidence_threshold: float | None = None, ppm_order: int = DEFAULT_PPM_ORDER,
                top_n: int = DEFAULT_TOP_N):
        algorithm = algorithm.lower()
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
        if lookahead_window < 1:
            raise ValueError("lookahead_window must be >= 1")
        if confidence_threshold is None:
            confidence_threshold = (DEFAULT_DG_THRESHOLD if algorithm == "dg"
                                    else DEFAULT_PPM_THRESHOLD)
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if ppm_order < 1:
            raise ValueError("ppm_order must be >= 1")
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        return super().__new__(cls, algorithm, lookahead_window, confidence_threshold,
                               ppm_order, top_n)

    @property
    def trigger_depth(self) -> int:
        """How many trailing previous requests trigger a prediction in replay:
        ``ppm_order`` for PPM (context-sensitive), 1 for the others."""
        return self.ppm_order if self.algorithm == "ppm" else 1


def _config_algorithms(configs: Sequence[PredictorConfig]) -> list[str]:
    """The configs' algorithms, in order; a run takes at least one config, one per algorithm."""
    algorithms = [config.algorithm for config in configs]
    if not algorithms:
        raise ValueError("at least one config is required")
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"one config per algorithm, got {algorithms}")
    return algorithms


def _ranked(keys: list[str], count: Callable[[str], int]) -> list[str]:
    """Sort ``keys`` in place by ``count(key)`` descending, then lexicographically.

    Returns ``keys``; reverse=True sorts stably, so equal counts keep the
    lexicographic order of the first pass.
    """
    keys.sort()
    keys.sort(key=count, reverse=True)
    return keys


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
        self._threshold = config.confidence_threshold  # read on every step
        self.node_counts: dict[str, int] = {}
        self.arc_counts: dict[str, dict[str, int]] = {}
        self.pending_window: deque[str] = deque(maxlen=config.lookahead_window)

    def update(self, key: str) -> None:
        arcs = self.arc_counts
        for source in self.pending_window:
            targets = arcs.get(source)
            if targets is None:
                arcs[source] = {key: 1}
            else:
                targets[key] = targets.get(key, 0) + 1
        self.node_counts[key] = self.node_counts.get(key, 0) + 1
        self.pending_window.append(key)

    def forget(self, stream: Sequence[str], count: int) -> None:
        nodes, arcs, window = self.node_counts, self.arc_counts, self.config.lookahead_window
        for position in range(count):
            source = stream[position]
            left = nodes[source] - 1
            if left:
                nodes[source] = left
            else:
                del nodes[source]
            successors = stream[position + 1:position + 1 + window]
            if successors:
                targets = arcs[source]
                for target in successors:
                    left = targets[target] - 1
                    if left:
                        targets[target] = left
                    else:
                        del targets[target]
                if not targets:
                    del arcs[source]
        _trim(self.pending_window, len(stream) - count)

    def predict(self, context: Sequence[str]) -> list[str]:
        if not context:
            return []
        source = context[-1]
        targets = self.arc_counts.get(source)
        if not targets:
            return []
        # a source keeps its row only while it occurs: forget drops both together
        occurrences, threshold = self.node_counts[source], self._threshold
        return _ranked([t for t, n in targets.items() if n / occurrences >= threshold],
                       targets.__getitem__)

    def state_dict(self) -> dict:
        return {
            "node_counts": dict(sorted(self.node_counts.items())),
            "arc_counts": {s: dict(sorted(t.items()))
                           for s, t in sorted(self.arc_counts.items())},
            "pending_window": list(self.pending_window),
        }


class _TrieNode(dict):
    """A PPM trie node: the dict of its children by url_key, plus its path's count."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class PPMModel:
    """Order-m Markov predictor over a trie of request contexts.

    Every contiguous subsequence of length <= ppm_order + 1 is a path in
    the trie; a node's count is the number of occurrences of its path.
    Prediction matches the longest trailing context suffix whose node has
    children, falling back to shorter suffixes when a node is missing or
    childless. When the context equals ``recent_context``, as in replay of a
    model trained on the unpruned front of the trace, prediction walks the
    suffix nodes that ``update`` keeps, longest first, instead of looking each
    path up from the root. ``engine.run_ppm_pass`` reads the same nodes.
    """

    algorithm = "ppm"

    def __init__(self, config: PredictorConfig):
        self.config = config
        self._order, self._threshold = config.ppm_order, config.confidence_threshold  # per step
        self.root = _TrieNode()
        self.recent_context: deque[str] = deque(maxlen=config.ppm_order)
        self._suffixes = [self.root]  # nodes of recent_context's suffixes, root first

    def update(self, key: str) -> None:
        self.root.count += 1
        # paths of length 1..order+1, all ending at `key`
        suffixes = [self.root]
        for node in self._suffixes:
            child = node.get(key)
            if child is None:
                child = node[key] = _TrieNode()
            child.count += 1
            suffixes.append(child)
        del suffixes[self._order + 1:]
        self._suffixes = suffixes
        self.recent_context.append(key)

    def forget(self, stream: Sequence[str], count: int) -> None:
        depth = self._order + 1
        for start in range(count):
            # the paths of length 1..order+1 that begin at `start`
            node = self.root
            for key in stream[start:start + depth]:
                child = node[key]
                if child.count == 1:
                    # every longer path through this node began here too
                    del node[key]
                    break
                child.count -= 1
                node = child
        self.root.count -= count
        _trim(self.recent_context, len(stream) - count)
        self._suffixes = self._suffix_nodes(self.recent_context)

    def _suffix_nodes(self, context: Sequence[str]) -> list[_TrieNode | None]:
        """Each suffix of the last ``order`` keys as its trie node or None, root first."""
        tail = list(context)[-self._order:]
        return [self._lookup(tail[start:]) for start in range(len(tail), -1, -1)]

    def _lookup(self, path: Sequence[str]) -> _TrieNode | None:
        node = self.root
        for key in path:
            node = node.get(key)
            if node is None:
                return None
        return node

    def predict(self, context: Sequence[str]) -> list[str]:
        # the model's own context has its nodes at hand, kept by update
        suffixes = self._suffixes if context == self.recent_context else self._suffix_nodes(context)
        for node in suffixes[:0:-1]:  # longest suffix first, the root left out
            if not node:  # missing, or without children
                continue
            total, threshold = node.count, self._threshold
            return _ranked([key for key, child in node.items()
                            if child.count / total >= threshold],
                           lambda key: node[key].count)
        return []

    def state_dict(self) -> dict:
        def encode(node: _TrieNode) -> dict:
            return {
                "count": node.count,
                "children": {k: encode(c) for k, c in sorted(node.items())},
            }
        return {
            "trie": encode(self.root),
            "recent_context": list(self.recent_context),
        }


class MPModel(DGModel):
    """Most-popular successors: DG's arc counts, ranked and cut at top-n."""

    algorithm = "mp"

    def predict(self, context: Sequence[str]) -> list[str]:
        if not context:
            return []
        successors = self.arc_counts.get(context[-1])
        if not successors:
            return []
        return _ranked(list(successors), successors.__getitem__)[: self.config.top_n]

    def state_dict(self) -> dict:
        state = super().state_dict()  # MP's own key for the arcs; the unread node counts left out
        return {"successor_lists": state["arc_counts"], "pending_window": state["pending_window"]}


class NaiveModel:
    """Baseline: every request seen in the past is predicted to reappear."""

    algorithm = "naive"

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.seen: dict[str, None] = {}  # insertion-ordered set
        self._offered: list[str] | None = None  # list(seen), kept until seen changes

    def update(self, key: str) -> None:
        if key not in self.seen:
            self.seen[key] = None
            self._offered = None

    def forget(self, stream: Sequence[str], count: int) -> None:
        # first-seen order is part of the state, so rebuild it
        self.seen = dict.fromkeys(stream[count:])
        self._offered = None

    def predict(self, context: Sequence[str]) -> list[str]:
        offered = self._offered
        if offered is None:
            offered = self._offered = list(self.seen)
        return offered

    def state_dict(self) -> dict:
        return {"seen": list(self.seen)}


PredictionModel = DGModel | PPMModel | MPModel | NaiveModel

_MODEL_CLASSES = {"dg": DGModel, "ppm": PPMModel, "mp": MPModel, "naive": NaiveModel}


def empty_model(config: PredictorConfig) -> PredictionModel:
    return _MODEL_CLASSES[config.algorithm](config)


def train(config: PredictorConfig, training: Iterable[str],
          like: DGModel | None = None) -> PredictionModel:
    """Fold ``update`` over a (possibly empty) training sequence from an empty model.

    ``like``, a DG or MP model that ``train`` folded over the same ``training``,
    gives the same model without the fold: a DG or MP config of its lookahead
    window copies its table, and a Naive config takes its node keys, which a
    fold keeps in first-seen order. Any other ``like`` raises ValueError.
    """
    model = empty_model(config)
    if like is None:
        for key in training:
            model.update(key)
    elif not isinstance(like, DGModel) or config.algorithm == "ppm":
        raise ValueError(f"a {config.algorithm} config cannot copy a {type(like).__name__}")
    elif config.algorithm == "naive":
        model.seen = dict.fromkeys(like.node_counts)
    elif config.lookahead_window != like.config.lookahead_window:
        raise ValueError(f"lookahead window {config.lookahead_window} cannot copy a table "
                         f"of window {like.config.lookahead_window}")
    else:
        model.node_counts = dict(like.node_counts)
        model.arc_counts = {source: dict(row) for source, row in like.arc_counts.items()}
        model.pending_window.extend(like.pending_window)
    return model


def model_to_dict(model: PredictionModel) -> dict:
    """Versioned, JSON-ready snapshot of the full model state."""
    return {
        "format": MODEL_FORMAT,
        "algorithm": model.algorithm,
        "config": model.config._asdict(),
        "state": model.state_dict(),
    }


def model_to_json(model: PredictionModel) -> str:
    """Canonical JSON serialization (stable key order) for fixture pinning."""
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
