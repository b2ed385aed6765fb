"""Self-tests of the benchmark: python -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, commands, generate  # noqa: E402

from prefetchlab import cli  # noqa: E402

SMALL = dict(count=6, min_length=60, max_length=80, repertoire_size=8, noise_rate=0.2)


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], generator=SMALL)


@pytest.mark.parametrize("name", ["pipeline", "sweep"])
def test_generation_is_byte_identical_for_a_seed(tmp_path, name):
    workload = small(name)
    for run_dir in ("a", "b", "c"):
        generate(workload, 7 if run_dir != "c" else 8, tmp_path / run_dir / "raw.log")
    first = (tmp_path / "a" / "raw.log").read_bytes()
    assert first == (tmp_path / "b" / "raw.log").read_bytes()
    assert first != (tmp_path / "c" / "raw.log").read_bytes()


@pytest.fixture
def evaluated(tmp_path):
    """A small workload ingested and evaluated in-process, like one round does."""
    workload = small("pipeline")
    log_path = tmp_path / "raw.csv"
    generated = generate(workload, 3, log_path)
    steps = dict(commands(workload, log_path, tmp_path))
    for step in ("ingest", "analyze", "analyze_w2"):
        assert cli.main(steps[step]) == 0
    return tmp_path, generated, log_path


def _bump_hit_count(path: Path, algorithm: str) -> None:
    report = json.loads(path.read_text())
    outcome = next(iter(report["results"][algorithm].values()))["outcome"]
    outcome["hit_count"] += 1
    path.write_text(json.dumps(report))


def test_checks_pass_on_real_outputs(evaluated):
    work, generated, log_path = evaluated
    report = checks.read_report(work / "analyze")
    assert checks.check_ingest(work / "ingest", generated,
                               *checks.log_counts(log_path, "csv")) == []
    assert checks.check_naive_seen(report, generated) == []
    assert checks.check_oracle_sample(report, generated, seed=1) == []
    assert checks.check_same_outputs(work / "analyze", work / "analyze_w2") == []


@pytest.mark.parametrize("algorithm", ["dg", "naive"])
def test_checks_reject_one_changed_hit_count(evaluated, algorithm):
    work, generated, _ = evaluated
    _bump_hit_count(work / "analyze_w2" / "report.json", algorithm)
    assert checks.check_same_outputs(work / "analyze", work / "analyze_w2")
    _bump_hit_count(work / "analyze" / "report.json", algorithm)
    report = checks.read_report(work / "analyze")
    assert checks.check_oracle_sample(report, generated, seed=1, sample=len(generated))
    if algorithm == "naive":
        assert checks.check_naive_seen(report, generated)


def test_sweep_check_rejects_one_changed_naive_recall(tmp_path):
    workload = small("sweep")
    log_path = tmp_path / "raw.jsonl"
    generated = generate(workload, 5, log_path)
    steps = dict(commands(workload, log_path, tmp_path))
    for step in ("ingest", "analyze"):
        assert cli.main(steps[step]) == 0
    assert checks.check_sweep(tmp_path / "analyze", generated) == []
    rows_path = tmp_path / "analyze" / "sweep_naive.csv"
    header, first, *rest = rows_path.read_text().splitlines()
    cells = first.split(",")
    cells[5] = repr(float(cells[5]) / 2 + 0.01)
    rows_path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert checks.check_sweep(tmp_path / "analyze", generated)


def test_a_command_that_exits_non_zero_fails_its_operation(tmp_path):
    steps = [("analyze", ["evaluate", "--input", str(tmp_path / "missing"), "--workers", "1",
                          "--out", str(tmp_path / "analyze")])]
    problems: list[str] = []
    [(step, wall, rss, ok, probe_before, probe_after)] = run.run_round(
        steps, tmp_path, lambda step: [], problems)
    assert not ok and wall > 0 and rss > 0 and probe_before > 0 and probe_after > 0
    assert problems and problems[0].startswith("analyze: exit code 1")
