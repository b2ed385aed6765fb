from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prefetchlab.traces import (InvalidURLError, UserTrace, parse_domain, population_summary,
                                repetition_stats)


def test_parse_domain_strips_scheme_path_query_fragment():
    assert parse_domain("https://www.Example.COM/a/b?q=1#frag") == "www.example.com"
    assert parse_domain("http://host.example/path") == "host.example"
    assert parse_domain("host.example/path?x=1") == "host.example"
    assert parse_domain("host.example") == "host.example"


def test_parse_domain_keeps_port_and_userinfo_opaque():
    assert parse_domain("https://user:pw@host.example:8080/x") == "user:pw@host.example:8080"


def test_parse_domain_rejects_empty():
    with pytest.raises(InvalidURLError):
        parse_domain("")


def test_query_string_distinguishes_requests():
    a = "https://h.example/p?page=1"
    b = "https://h.example/p?page=2"
    assert a != b and parse_domain(a) == parse_domain(b)


url_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=40)


@given(url_text)
def test_parse_domain_idempotent(url):
    once = parse_domain(url)
    if once:  # a URL like "/x" reduces to the empty host, which is rejected on re-parse
        assert parse_domain(once) == once


def test_user_trace_build_sorts_by_timestamp_stably():
    trace = UserTrace.build("u1", [300, 100, 300, 200], [
        "https://a.example/3",
        "https://a.example/1",
        "https://a.example/3b",  # tie: keeps input order
        "https://a.example/2",
    ])
    assert trace.timestamps == [100, 200, 300, 300]
    assert trace.url_keys == [
        "https://a.example/1",
        "https://a.example/2",
        "https://a.example/3",
        "https://a.example/3b",
    ]


def test_traces_that_differ_in_one_field_compare_unequal():
    trace = UserTrace("u", [1, 2], ["a", "b"])
    assert trace == UserTrace("u", [1, 2], ["a", "b"])
    for other in (UserTrace("v", [1, 2], ["a", "b"]), UserTrace("u", [1, 3], ["a", "b"]),
                  UserTrace("u", [1, 2], ["a", "c"])):
        assert trace != other


def test_user_trace_build_rejects_unequal_columns():
    with pytest.raises(ValueError, match="2 timestamps but 1 url_keys"):
        UserTrace.build("u1", [1, 2], ["https://a.example/"])


def test_requests_view_pairs_the_columns():
    trace = UserTrace.build("u1", [2, 1], ["https://a.example/2", "https://a.example/1"])
    assert len(trace) == 2
    assert [(r.timestamp, r.url_key) for r in trace.requests] == [
        (1, "https://a.example/1"), (2, "https://a.example/2")]


def _trace(keys: list[str]) -> UserTrace:
    return UserTrace.build("u", list(range(len(keys))), keys)


def test_repetition_stats_counts_every_occurrence_of_repeated_keys():
    stats = repetition_stats(_trace(["A", "A", "B"]))
    assert stats.unique_count == 2
    assert stats.repeated_count == 2  # both occurrences of A
    assert stats.repeated_pct == pytest.approx(2 / 3)
    assert stats.occurrence_histogram == {"A": 2}


def test_repetition_stats_all_unique():
    stats = repetition_stats(_trace(["A", "B", "C"]))
    assert stats.repeated_count == 0
    assert stats.repeated_pct == 0.0
    assert stats.occurrence_histogram == {}


def test_repetition_stats_empty_trace():
    stats = repetition_stats(UserTrace("u", [], []))
    assert stats.unique_count == 0 and stats.repeated_pct == 0.0


@given(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=50))
def test_repetition_stats_order_insensitive(keys):
    forward = repetition_stats(_trace(keys))
    backward = repetition_stats(_trace(list(reversed(keys))))
    assert forward.repeated_count == backward.repeated_count
    assert forward.unique_count == backward.unique_count


# ---------------------------------------------------------------- population_summary

# what stats summarises: k/n shares and integer counts; and any float, -0.0 included
ratios = st.integers(min_value=1, max_value=10**4).flatmap(
    lambda n: st.integers(min_value=0, max_value=n).map(lambda k: k / n))
counts = st.integers(min_value=0, max_value=10**6).map(float)
magnitudes = st.floats(min_value=-1e3, max_value=1e3)
summary_values = st.one_of(ratios, counts, magnitudes, st.just(-0.0))


def _long_list(n, seed, kind):
    # past numpy's 8,192-item buffer: too long for hypothesis to draw item by item
    rng = random.Random(seed)
    if kind == "ratio":
        return [rng.randint(0, 997) / 997 for _ in range(n)]
    if kind == "count":
        return [float(rng.randint(0, 10**6)) for _ in range(n)]
    return [rng.uniform(-1, 1) * 10 ** rng.uniform(-3, 3) for _ in range(n)]


long_lists = st.builds(_long_list, st.integers(min_value=8185, max_value=16400),
                       st.integers(min_value=0, max_value=2**32 - 1),
                       st.sampled_from(["ratio", "count", "magnitude"]))


@pytest.fixture(scope="module")
def np():
    # skips before hypothesis runs, which would report the skip as a failing example
    return pytest.importorskip("numpy")


@given(st.one_of(st.lists(summary_values, min_size=1, max_size=300), long_lists))
@example([-0.0] * 40)  # numpy's mean of these is 0.0
@example([0.1] * 8)  # 8 strided accumulators sum these to 0.8, a running sum to 0.7999...
def test_population_summary_equals_numpy_bit_for_bit(np, values):
    arr = np.asarray(values, dtype=float)
    got = population_summary(values)
    assert got["avg"].hex() == float(arr.mean()).hex()
    assert got["sd"].hex() == float(arr.std()).hex()
    signed_zeros = {math.copysign(1.0, x) for x in values if x == 0.0}
    for key, ref in (("min", float(arr.min())), ("max", float(arr.max()))):
        if ref == 0.0 and len(signed_zeros) == 2:
            # whether numpy returns 0.0 or -0.0 here depends on its SIMD lane order
            assert got[key] == ref
        else:
            assert got[key].hex() == ref.hex()


def test_population_summary_of_nothing_is_all_none():
    assert population_summary([]) == {"min": None, "avg": None, "max": None, "sd": None}
