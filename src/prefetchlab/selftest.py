"""Self-contained correctness checks runnable from the CLI.

Each check fuzzes one load-bearing equivalence on freshly generated traces:

* the fast replay engine against the brute-force reference,
* training against folding single-request updates (one update path),
* ``forget`` of a prefix against fresh training on what remains,
* the baseline's guaranteed dominance over every other predictor,
* the normalization identity (a run normalized against itself is 1).

The test suite runs the same checks at higher counts; the CLI exposes them
so a deployment can be validated without a test framework installed.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .engine import SplitSpec, run_user, split
from .metrics import metrics_report, normalize_against_naive
from .oracle import count_previously_seen, oracle_run
from .predictors import ALGORITHMS, PredictorConfig, empty_model, model_to_json, train
from .synth import random_config, uniform_trace, url_pool
from .traces import UserTrace


class CheckResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    detail: str = ""


def _random_ratio(rng: random.Random) -> float:
    return rng.choice([0.3, 0.5, 0.8, 0.9])


def check_oracle_equivalence(seed: int, trace_count: int) -> CheckResult:
    """Fast engine vs from-scratch replay on all six outcome fields."""
    rng = random.Random(seed)
    cases = 0
    for index in range(trace_count):
        trace = uniform_trace(rng, f"u{index}", rng.randint(2, 100), rng.randint(2, 15))
        spec = SplitSpec(training_ratio=_random_ratio(rng))
        training, test = split(trace, spec)
        configs = [random_config(rng, algorithm) for algorithm in ALGORITHMS]
        for config, run in zip(configs, run_user(trace, configs, spec)):
            expected, actual = oracle_run(config, training, test), run.outcome
            cases += 1
            if actual != expected:
                return CheckResult(
                    "oracle-equivalence", False, cases,
                    f"seed={seed} trace={index} algorithm={config.algorithm}: "
                    f"engine={actual.to_dict()} reference={expected.to_dict()}")
    return CheckResult("oracle-equivalence", True, cases)


def check_train_fold(seed: int, sequence_count: int) -> CheckResult:
    """train(seq) and folding model.update over seq must serialize identically."""
    rng = random.Random(seed)
    cases = 0
    for index in range(sequence_count):
        length = rng.randint(0, 60)  # 0: folding nothing over an empty model
        pool = url_pool(rng.randint(2, 10))
        keys = [rng.choice(pool) for _ in range(length)]
        for algorithm in ALGORITHMS:
            config = random_config(rng, algorithm)
            batch = train(config, keys)
            folded = empty_model(config)
            for key in keys:
                folded.update(key)
            cases += 1
            if model_to_json(batch) != model_to_json(folded):
                return CheckResult(
                    "train-equals-fold", False, cases,
                    f"seed={seed} sequence={index} algorithm={algorithm} length={length}")
    return CheckResult("train-equals-fold", True, cases)


def check_forget_equals_fresh(seed: int, sequence_count: int) -> CheckResult:
    """train(seq) then forget(seq, count) must serialize as train(seq[count:])."""
    rng = random.Random(seed)
    cases = 0
    for index in range(sequence_count):
        length = rng.randint(1, 60)
        pool = url_pool(rng.randint(2, 10))
        keys = [rng.choice(pool) for _ in range(length)]
        # every other case keeps at most 6 keys, fewer than a long window holds
        count = rng.randint(max(0, length - 6), length) if index % 2 else rng.randint(0, length)
        for algorithm in ALGORITHMS:
            config = random_config(rng, algorithm)
            slid = train(config, keys)
            slid.forget(keys, count)
            cases += 1
            if model_to_json(slid) != model_to_json(train(config, keys[count:])):
                return CheckResult(
                    "forget-equals-fresh", False, cases,
                    f"seed={seed} sequence={index} algorithm={algorithm} "
                    f"length={length} count={count}")
    return CheckResult("forget-equals-fresh", True, cases)


def check_naive_dominance(seed: int, trace_count: int) -> CheckResult:
    """Naive recalls bound every algorithm; its hits = previously-seen count."""
    rng = random.Random(seed)
    cases = 0
    for index in range(trace_count):
        trace = uniform_trace(rng, f"u{index}", rng.randint(4, 80), rng.randint(2, 12))
        spec = SplitSpec(training_ratio=_random_ratio(rng))
        training, test = split(trace, spec)
        configs = [PredictorConfig("naive")] + [random_config(rng, a) for a in ("dg", "ppm", "mp")]
        naive, *others = run_user(trace, configs, spec)
        expected_hits = count_previously_seen(training, test)
        if naive.outcome.hit_count != expected_hits:
            return CheckResult(
                "naive-dominance", False, cases,
                f"seed={seed} trace={index}: naive hit_count {naive.outcome.hit_count} "
                f"!= previously-seen count {expected_hits}")
        naive_metrics = metrics_report(trace.user_id, "naive", naive.outcome)

        for config, run in zip(configs[1:], others):
            other = metrics_report(trace.user_id, config.algorithm, run.outcome)
            cases += 1
            for metric in ("static_recall", "dynamic_recall"):
                ours, bound = getattr(other, metric), getattr(naive_metrics, metric)
                if ours is not None and bound is not None and ours > bound:
                    return CheckResult(
                        "naive-dominance", False, cases,
                        f"seed={seed} trace={index} algorithm={config.algorithm}: "
                        f"{metric} {ours} exceeds naive {bound}")
    return CheckResult("naive-dominance", True, cases)


def check_normalization_identity(seed: int, trace_count: int) -> CheckResult:
    """Naive normalized against itself is exactly 1 whenever its raw value > 0."""
    rng = random.Random(seed)
    cases = 0
    for index in range(trace_count):
        # mix repeat-heavy traces with all-unique ones (raw recall 0)
        if index % 3 == 0:
            keys = [f"https://one-shot.example/{index}/{i}" for i in range(rng.randint(2, 30))]
            timestamps = [1_600_000_000_000 + i for i in range(len(keys))]
            trace = UserTrace.build(f"u{index}", timestamps, keys)
        else:
            trace = uniform_trace(rng, f"u{index}", rng.randint(2, 60), rng.randint(2, 10))
        spec = SplitSpec(training_ratio=_random_ratio(rng))
        outcome = run_user(trace, [PredictorConfig("naive")], spec)[0].outcome
        report = metrics_report(trace.user_id, "naive", outcome)
        normalized = normalize_against_naive(report, report)
        cases += 1
        for raw_name, norm_name in (("static_recall", "normalized_static_recall"),
                                     ("dynamic_recall", "normalized_dynamic_recall")):
            raw, norm = getattr(report, raw_name), getattr(normalized, norm_name)
            if raw is not None and raw > 0 and norm != 1.0:
                return CheckResult(
                    "normalization-identity", False, cases,
                    f"seed={seed} trace={index}: {norm_name}={norm} with raw {raw}")
            if (raw is None or raw == 0) and norm is not None:
                return CheckResult(
                    "normalization-identity", False, cases,
                    f"seed={seed} trace={index}: {norm_name} defined with raw {raw}")
    return CheckResult("normalization-identity", True, cases)


def run_selftest(seed: int = 0) -> list[CheckResult]:
    cases = 200  # traces or sequences per check
    return [
        check_oracle_equivalence(seed, cases),
        check_train_fold(seed + 1, cases),
        check_naive_dominance(seed + 2, cases),
        check_normalization_identity(seed + 3, cases),
        check_forget_equals_fresh(seed + 4, cases),
    ]
