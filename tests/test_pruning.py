from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetchlab.pruning import PruneSpec, prune, domain_cutoff_filter
from prefetchlab.traces import UserTrace, parse_domain


def _urls(domain_paths):
    return [f"https://{d}/{p}" for d, p in domain_paths]


# ---------------------------------------------------------------- spec validation

def test_prune_spec_validation():
    with pytest.raises(ValueError):
        PruneSpec("magic")
    with pytest.raises(ValueError):
        PruneSpec("mor", keep_fraction=0.0)
    with pytest.raises(ValueError):
        PruneSpec("mor", keep_fraction=1.5)
    assert PruneSpec("MOR").strategy == "mor"


def test_prune_rejects_empty_training():
    with pytest.raises(ValueError):
        prune([], PruneSpec("mor"))


# ---------------------------------------------------------------- mor

def test_mor_keeps_largest_request_group():
    training = ["A", "A", "A", "B", "B", "C", "D", "E"]
    result = prune(training, PruneSpec("mor", keep_fraction=0.2))
    assert result.groups_total == 5
    assert result.groups_kept == 1  # ceil(0.2 * 5)
    assert result.kept_training == ["A", "A", "A"]
    assert result.size_reduction == pytest.approx(5 / 8)


def test_mor_group_ties_break_lexicographically():
    result = prune(["B", "A"], PruneSpec("mor", keep_fraction=0.5))
    assert result.kept_training == ["A"]


# ---------------------------------------------------------------- mad

def test_mad_keeps_highest_volume_domain():
    training = _urls([("d1.example", i) for i in range(6)] +
                     [("d2.example", i) for i in range(2)])
    result = prune(training, PruneSpec("mad", keep_fraction=0.5))
    assert result.groups_total == 2 and result.groups_kept == 1
    assert all("d1.example" in u for u in result.kept_training)
    assert len(result.kept_training) == 6


# ---------------------------------------------------------------- msd

def test_msd_prefers_repeat_heavy_domain():
    # domain X: all unique; domain Y: everything repeated
    training = _urls([("x.example", f"u{i}") for i in range(4)]) + \
        _urls([("y.example", "same")] * 4)
    result = prune(training, PruneSpec("msd", keep_fraction=0.5))
    assert all("y.example" in u for u in result.kept_training)


def test_msd_proportion_is_within_domain():
    # y has 2/4 repeated (0.5); x has 2/3 repeated (0.667) despite being smaller
    training = _urls([("y.example", "a"), ("y.example", "a"),
                      ("y.example", "b"), ("y.example", "c"),
                      ("x.example", "p"), ("x.example", "p"), ("x.example", "q")])
    result = prune(training, PruneSpec("msd", keep_fraction=0.5))
    assert all("x.example" in u for u in result.kept_training)


# ---------------------------------------------------------------- shared properties

training_st = st.lists(
    st.sampled_from(_urls([(f"d{i}.example", f"p{j}") for i in range(3) for j in range(4)])),
    min_size=1, max_size=60)
spec_st = st.builds(PruneSpec,
                    strategy=st.sampled_from(("mor", "mad", "msd")),
                    keep_fraction=st.sampled_from((0.2, 0.5, 1.0)))


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(any(x == y for y in it) for x in sub)


@given(training_st, spec_st)
def test_prune_output_is_order_preserving_subsequence(training, spec):
    result = prune(training, spec)
    assert _is_subsequence(result.kept_training, training)
    assert result.groups_kept == math.ceil(spec.keep_fraction * result.groups_total)
    assert 0 <= result.size_reduction < 1
    assert result.size_reduction == pytest.approx(1 - len(result.kept_training) / len(training))


@given(training_st, st.sampled_from(("mor", "mad", "msd")))
def test_keep_fraction_one_is_identity(training, strategy):
    result = prune(training, PruneSpec(strategy, keep_fraction=1.0))
    assert result.kept_training == list(training)
    assert result.size_reduction == 0.0


# ---------------------------------------------------------------- domain cut-off

def _trace(urls):
    return UserTrace.build("u", list(range(len(urls))), urls)


def test_cutoff_removes_no_repeat_domain():
    urls = _urls([("keep.example", "a")] * 4 + [("drop.example", f"u{i}") for i in range(3)])
    filtered = domain_cutoff_filter(_trace(urls), min_repeated_pct=0.10)
    assert all(parse_domain(url) == "keep.example" for url in filtered.url_keys)
    assert len(filtered) == 4


def test_cutoff_keeps_domain_at_or_above_threshold():
    urls = _urls([("half.example", "a"), ("half.example", "a"),
                  ("half.example", "b"), ("half.example", "c")])  # repeated pct 0.5
    filtered = domain_cutoff_filter(_trace(urls), min_repeated_pct=0.5)
    assert len(filtered) == 4


def test_cutoff_can_empty_a_trace():
    urls = _urls([("only.example", f"unique{i}") for i in range(5)])
    filtered = domain_cutoff_filter(_trace(urls), min_repeated_pct=0.10)
    assert len(filtered) == 0
    assert filtered.user_id == "u"


def test_cutoff_preserves_request_order():
    urls = _urls([("a.example", "x"), ("b.example", "y"), ("a.example", "x"),
                  ("b.example", "y"), ("a.example", "z")])
    filtered = domain_cutoff_filter(_trace(urls), min_repeated_pct=0.4)
    assert filtered.url_keys == urls  # both domains repeat enough


# hosts that parse_domain folds together (case, scheme) next to distinct ones
CUTOFF_HOSTS = ("https://a.example", "https://A.EXAMPLE", "a.example", "http://b.example",
                "c.example:8080")


@given(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(CUTOFF_HOSTS), st.integers(0, 3)),
                max_size=40),
       st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_cutoff_matches_per_request_definition(rows, cutoff):
    trace = UserTrace.build("u", [ts for ts, _, _ in rows],
                            [f"{host}/p{page}" for _, host, page in rows])
    domains = [parse_domain(url) for url in trace.url_keys]

    def repeated_share(domain):
        in_domain = [url for url, d in zip(trace.url_keys, domains) if d == domain]
        return sum(in_domain.count(url) >= 2 for url in in_domain) / len(in_domain)

    expected = [(ts, url) for ts, url, domain in zip(trace.timestamps, trace.url_keys, domains)
                if repeated_share(domain) >= cutoff]
    filtered = domain_cutoff_filter(trace, cutoff)
    assert filtered.user_id == "u"
    assert list(zip(filtered.timestamps, filtered.url_keys)) == expected
