"""Each self-check stops at its first failing case and reports it.

The checks pass on working code, so each failure path is reached by
replacing one name that ``prefetchlab.selftest`` calls with a wrong stand-in.
"""

from __future__ import annotations

import pytest

from prefetchlab import selftest
from prefetchlab.engine import TestOutcome
from prefetchlab.predictors import empty_model, train

# no replay of a non-empty test sequence has this outcome: it scores no request
NOTHING = TestOutcome(0, frozenset(), frozenset(), 0, 0, 0)


def _always_new(model):
    return object()  # equal to no other serialization


def _copies_nothing(config, training, like=None):
    return empty_model(config) if like is not None else train(config, training)


def _normalized_to_half(report, naive):
    return report._replace(normalized_static_recall=0.5, normalized_dynamic_recall=0.5)


# check, seed, the name replaced, its stand-in, the failing case's number, detail prefix
FAILURES = [
    (selftest.check_oracle_equivalence, 5, "oracle_run", lambda *args: NOTHING, 1,
     "seed=5 trace=0 algorithm=dg: engine="),
    (selftest.check_oracle_equivalence, 5, "run_dg_table_engine",
     lambda *args: (NOTHING, NOTHING, NOTHING), 1, "seed=5 trace=0 algorithm=dg: table-pass="),
    (selftest.check_oracle_equivalence, 5, "run_ppm_pass", lambda *args: NOTHING, 2,
     "seed=5 trace=0 algorithm=ppm: ppm-pass="),
    (selftest.check_train_fold, 6, "model_to_json", _always_new, 1,
     "seed=6 sequence=0 algorithm=dg length="),
    (selftest.check_train_fold, 6, "train", _copies_nothing, 1,
     "seed=6 sequence=0 algorithm=dg length=50 like=mp"),
    (selftest.check_forget_equals_fresh, 7, "model_to_json", _always_new, 1,
     "seed=7 sequence=0 algorithm=dg length="),
    (selftest.check_naive_dominance, 8, "count_previously_seen", lambda training, test: -1, 1,
     "seed=8 trace=0: naive hit_count "),
    (selftest.check_normalization_identity, 9, "normalize_against_naive", _normalized_to_half,
     1, "seed=9 trace=0: normalized_static_recall defined with raw "),
]


@pytest.mark.parametrize("check, seed, name, stand_in, cases, detail", FAILURES,
                         ids=[f"{check.__name__}-{name}" for check, _, name, *_ in FAILURES])
def test_a_check_reports_its_first_failing_case(monkeypatch, check, seed, name, stand_in,
                                                cases, detail):
    passing = check(seed, 3)
    assert passing.passed and passing.detail == ""
    monkeypatch.setattr(selftest, name, stand_in)
    result = check(seed, 3)
    assert result.passed is False
    assert result.name == passing.name
    assert result.cases == cases
    assert result.detail.startswith(detail)

