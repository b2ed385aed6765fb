"""Training-data pruning strategies and the domain repeated-percentage filter.

All three strategies group the training sequence, rank the groups by a
strategy-specific size metric, and keep the requests belonging to the top
ceil(keep_fraction * groups) groups, preserving original request order:

* mor — group identical url_keys, rank by occurrence count
* mad — group by domain, rank by request volume
* msd — group by domain, rank by the proportion of repeated requests
         within the domain (computed inside the given training slice)

Ties rank lexicographically by group key so results are deterministic.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from typing import NamedTuple, Sequence

from .traces import UserTrace, parse_domain

STRATEGIES = ("mor", "mad", "msd")


class PruneSpec(namedtuple("PruneSpec", "strategy keep_fraction")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, strategy: str, keep_fraction: float = 0.2):
        strategy = strategy.lower()
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown pruning strategy {strategy!r}, expected one of {STRATEGIES}")
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must lie in (0, 1]")
        return super().__new__(cls, strategy, keep_fraction)


class PruneResult(NamedTuple):
    kept_training: list[str]  # subsequence of the input, original order
    size_reduction: float
    groups_total: int
    groups_kept: int

    def to_dict(self) -> dict:
        """The fields, with the kept requests reduced to their count."""
        fields = self._asdict()
        fields["kept_requests"] = len(fields.pop("kept_training"))
        return fields


def _group_metrics(training: Sequence[str], strategy: str) -> tuple[list[str], dict[str, float]]:
    """Per-request group keys plus each group's ranking metric."""
    if strategy == "mor":
        keys = list(training)
        return keys, {k: float(n) for k, n in Counter(keys).items()}
    domain_of = {url: parse_domain(url) for url in set(training)}  # urls repeat: parse once
    domains = [domain_of[url] for url in training]
    if strategy == "mad":
        return domains, {d: float(n) for d, n in Counter(domains).items()}
    # msd: proportion of repeated requests within each domain
    per_domain: dict[str, Counter] = {}
    for domain, url in zip(domains, training):
        per_domain.setdefault(domain, Counter())[url] += 1
    metric = {}
    for domain, counts in per_domain.items():
        total = sum(counts.values())
        repeated = sum(n for n in counts.values() if n >= 2)
        metric[domain] = repeated / total
    return domains, metric


def prune(training: Sequence[str], spec: PruneSpec) -> PruneResult:
    """Keep the requests of the top keep_fraction of groups (at least one group)."""
    if not training:
        raise ValueError("prune requires a non-empty training sequence")
    group_keys, metric = _group_metrics(training, spec.strategy)
    groups_total = len(metric)
    groups_kept = math.ceil(spec.keep_fraction * groups_total)
    ranked = sorted(metric, key=lambda g: (-metric[g], g))
    kept_groups = set(ranked[:groups_kept])
    kept = [url for url, g in zip(training, group_keys) if g in kept_groups]
    return PruneResult(
        kept_training=kept,
        size_reduction=1.0 - len(kept) / len(training),
        groups_total=groups_total,
        groups_kept=groups_kept,
    )


def domain_cutoff_filter(trace: UserTrace, min_repeated_pct: float = 0.10) -> UserTrace:
    """Drop every request whose domain repeats too rarely within this trace.

    A domain's repeated percentage is the share of its requests whose
    url_key occurs at least twice inside that domain. Domains strictly
    below the cut-off are removed wholesale; callers treat an emptied
    trace as an excluded user.
    """
    domains, repeated_share = _group_metrics(trace.url_keys, "msd")  # msd ranks by this share
    kept = [i for i, domain in enumerate(domains) if repeated_share[domain] >= min_repeated_pct]
    return UserTrace(trace.user_id, [trace.timestamps[i] for i in kept],
                     [trace.url_keys[i] for i in kept])
