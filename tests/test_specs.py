"""The four validated specs are values: checked when built, immutable, equal by value."""

from __future__ import annotations

import pickle

import pytest

from prefetchlab.engine import SplitSpec
from prefetchlab.predictors import ALGORITHMS, PredictorConfig
from prefetchlab.pruning import PruneSpec
from prefetchlab.sweep import SlidingWindowSpec

# spec class -> (valid keyword arguments, invalid keyword arguments it rejects)
SPECS = {
    SplitSpec: (
        {"training_ratio": 0.7},
        [{"training_ratio": 0.0}, {"training_ratio": 1.0}, {"training_ratio": float("nan")}],
    ),
    PredictorConfig: (
        {"algorithm": "ppm", "lookahead_window": 3, "confidence_threshold": 0.5,
         "ppm_order": 3, "top_n": 2},
        [{"algorithm": "magic"}, {"algorithm": "dg", "lookahead_window": 0},
         {"algorithm": "dg", "confidence_threshold": 1.5},
         {"algorithm": "dg", "confidence_threshold": -0.1},
         {"algorithm": "ppm", "ppm_order": 0}, {"algorithm": "mp", "top_n": 0}],
    ),
    PruneSpec: (
        {"strategy": "msd", "keep_fraction": 0.5},
        [{"strategy": "magic"}, {"strategy": "mor", "keep_fraction": 0.0},
         {"strategy": "mor", "keep_fraction": 1.5}],
    ),
    SlidingWindowSpec: (
        {"window_sizes": (5, 10), "training_ratio": 0.6},
        [{"window_sizes": ()}, {"window_sizes": (1,)},
         {"window_sizes": (2,), "training_ratio": 0.3}, {"training_ratio": 1.0},
         {"window_sizes": (5, 5)}],
    ),
}


@pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
def test_spec_rejects_invalid_fields(cls):
    for kwargs in SPECS[cls][1]:
        with pytest.raises(ValueError):
            cls(**kwargs)


@pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
def test_spec_is_an_immutable_value(cls):
    kwargs = SPECS[cls][0]
    spec = cls(**kwargs)
    assert spec == cls(**kwargs) and hash(spec) == hash(cls(**kwargs))
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert repr(spec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(spec, name, kwargs[name])
    with pytest.raises(AttributeError):
        spec.extra = 1


@pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
def test_spec_replace_checks_the_new_fields(cls):
    valid, invalid = SPECS[cls]
    spec = cls(**valid)
    for kwargs in invalid:
        with pytest.raises(ValueError):
            spec._replace(**kwargs)


def test_specs_keep_their_defaults_and_normalisations():
    assert SplitSpec() == SplitSpec(0.8)
    assert PredictorConfig("DG") == PredictorConfig("dg", 4, None, 2, 5)
    assert PredictorConfig("dg").confidence_threshold == 0.25
    assert PredictorConfig("ppm").confidence_threshold == 0.1
    assert PredictorConfig("mp").confidence_threshold == 0.1
    assert PredictorConfig("dg") == PredictorConfig("dg", confidence_threshold=0.25)
    for c in map(PredictorConfig, ALGORITHMS):  # the config holds the threshold its model uses
        assert PredictorConfig(**c._asdict()) == c
        assert c._replace(confidence_threshold=None) == c
    assert PruneSpec("MOR") == PruneSpec("mor", 0.2)
    assert SlidingWindowSpec(window_sizes=[5, 10]).window_sizes == (5, 10)
    assert SlidingWindowSpec().training_ratio == 0.8
    assert SplitSpec(0.5) != SplitSpec(0.6)
