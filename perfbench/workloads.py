"""The benchmark's workloads: what each generates and which commands it runs.

Every workload is a closed loop: one CLI command at a time, each in a fresh
process, at most 2 workers. Each one runs the same four steps, so every
end-to-end metric has a value on every workload:

* ``ingest``        -- parse the raw log into the ingested directory;
* ``analyze``       -- the workload's analysis command at ``--workers 1``
                       (``evaluate`` on pipeline, ``sweep`` on sweep);
* ``analyze_w2``    -- the same command at ``--workers 2``;
* ``evaluate_prune``-- ``evaluate --prune mor --workers 1``.

The raw log is generated from the seed with ``prefetchlab.synth``; the
program only ever sees the generated file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SWEEP_SIZES = "50,100,200,400,800"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # keyword arguments of prefetchlab.synth.bursty_traces, seed excluded
    generator: dict
    log_format: str
    non_get_rate: float
    analysis: tuple[str, ...]  # analysis command and its own options

    def to_dict(self) -> dict:
        return {"why": self.why, "generator": dict(self.generator),
                "log_format": self.log_format, "non_get_rate": self.non_get_rate,
                "analysis": list(self.analysis)}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline",
        why=("20 mid-size users: log parsing, trace loading and job pickling cost "
             "more than the per-model work (the shape of the baseline input in ROADMAP.md)"),
        generator=dict(count=20, min_length=900, max_length=1100,
                       repertoire_size=60, noise_rate=0.15),
        log_format="csv",
        non_get_rate=0.02,
        analysis=("evaluate",),
    ),
    Workload(
        name="sweep",
        why=("6 mid-size users in JSONL under the sliding-window sweep: models are "
             "retrained about 4 times per request and size, so train dominates; ingest "
             "parses JSONL"),
        # one fixed length, so that the number of windows per size is the same
        # for every seed
        generator=dict(count=6, min_length=1000, max_length=1000,
                       repertoire_size=60, noise_rate=0.15),
        log_format="jsonl",
        non_get_rate=0.02,
        analysis=("sweep", "--sizes", SWEEP_SIZES),
    ),
)}


def generate(workload: Workload, seed: int, log_path: Path):
    """Write the workload's raw log for ``seed``; returns the generated traces."""
    from prefetchlab.synth import bursty_traces, write_log

    traces = bursty_traces(seed, **workload.generator)
    write_log(traces, log_path, fmt=workload.log_format,
              non_get_rate=workload.non_get_rate, rng=random.Random(seed + 1))
    return traces


def commands(workload: Workload, log_path: Path, work: Path) -> list[tuple[str, list[str]]]:
    """The timed steps of one round, in order, as (step, CLI arguments).

    Each step writes to ``work / step``; the later steps read ``work / "ingest"``.
    """
    ingested = str(work / "ingest")
    return [
        ("ingest", ["ingest", "--input", str(log_path), "--format", workload.log_format,
                    "--out", ingested]),
        ("analyze", [*workload.analysis, "--input", ingested, "--workers", "1",
                     "--out", str(work / "analyze")]),
        ("analyze_w2", [*workload.analysis, "--input", ingested, "--workers", "2",
                        "--out", str(work / "analyze_w2")]),
        ("evaluate_prune", ["evaluate", "--input", ingested, "--prune", "mor",
                            "--workers", "1", "--out", str(work / "evaluate_prune")]),
    ]
