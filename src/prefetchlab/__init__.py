"""Per-user web-request prediction models evaluated through a simulated prefetch cache.

The workflow: parse request logs into per-user traces (`ingest`), train a
predictor on the head of each trace (`predictors.train`), replay the tail
through an unbounded prefetch cache (`engine.run_test_engine`), and score
the replay (`metrics`). Pruning strategies and sliding-window sweeps probe
how much training data the models actually need.
"""

from .engine import (RunResult, SplitSpec, TestOutcome, TraceTooShortError,
                     run_test_engine, run_user, split)
from .ingest import (LoadSummary, LogParseError, OutlierReport, load_traces,
                     read_trace_files, remove_outlier_users, write_trace_files)
from .metrics import (MetricsReport, aggregate_reports, dynamic_recall, metrics_report,
                      normalize_against_naive, static_precision, static_recall,
                      static_recall_strict)
from .predictors import (ALGORITHMS, PredictionModel, PredictorConfig, empty_model,
                         model_to_dict, model_to_json, train)
from .pruning import PruneResult, PruneSpec, STRATEGIES, domain_cutoff_filter, prune
from .sweep import (SlidingWindowSpec, SweepResult, WindowRecord, cutoff_scan,
                    enumerate_windows, run_sweep, sweep_user)
from .synth import (bursty_trace, bursty_traces, uniform_trace, uniform_traces,
                    url_pool, write_log)
from .traces import (InvalidURLError, RepetitionStats, Request, UserTrace,
                     parse_domain, repetition_stats)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "STRATEGIES",
    "InvalidURLError",
    "LoadSummary",
    "LogParseError",
    "MetricsReport",
    "OutlierReport",
    "PredictionModel",
    "PredictorConfig",
    "PruneResult",
    "PruneSpec",
    "RepetitionStats",
    "Request",
    "RunResult",
    "SlidingWindowSpec",
    "SplitSpec",
    "SweepResult",
    "TestOutcome",
    "TraceTooShortError",
    "UserTrace",
    "WindowRecord",
    "aggregate_reports",
    "bursty_trace",
    "bursty_traces",
    "cutoff_scan",
    "domain_cutoff_filter",
    "dynamic_recall",
    "empty_model",
    "enumerate_windows",
    "load_traces",
    "metrics_report",
    "model_to_dict",
    "model_to_json",
    "normalize_against_naive",
    "parse_domain",
    "prune",
    "read_trace_files",
    "remove_outlier_users",
    "repetition_stats",
    "run_sweep",
    "run_test_engine",
    "run_user",
    "split",
    "static_precision",
    "static_recall",
    "static_recall_strict",
    "sweep_user",
    "train",
    "uniform_trace",
    "uniform_traces",
    "url_pool",
    "write_log",
    "write_trace_files",
]
