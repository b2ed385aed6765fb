from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetchlab.traces import InvalidURLError, UserTrace, parse_domain, repetition_stats


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
