"""Every committed ``BENCH_*.json`` is whole and agrees with its own runs.

A bench file records a comparison made with ``perfbench/run.py``: per
workload and side (``parent``, ``change``), one run per seed, each run being
the run's provenance line and its metrics line merged into one object. Run
``i`` of the parent and run ``i`` of the change form pair ``i``. The file
states, per side, the median and the quartiles (``statistics.quantiles``,
inclusive) of each metric it quotes, and per metric the pairs in which the
change read lower.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_names_its_commits_and_states_what_its_runs_give(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    commits = bench["commits"]
    assert sorted(commits) == sorted(SIDES)
    assert all(re.fullmatch("[0-9a-f]{40}", commit) for commit in commits.values())
    assert commits["parent"] != commits["change"]
    assert bench["workloads"]
    for workload, section in bench["workloads"].items():
        values = {}
        for side in SIDES:
            seeds, runs = section["seeds"][side], section["runs"][side]
            assert seeds and len(runs) == len(seeds)
            for seed, run in zip(seeds, runs):
                provenance = run["provenance"]
                assert (provenance["workload"], provenance["seed"], provenance["git_commit"]) == (
                    workload, seed, commits[side])
                assert run["correct"] and run["failed"] == 0
            medians = section["medians"][side]
            assert medians
            values[side] = {name: [run["metrics"][name]["value"] for run in runs]
                            for name in medians}
            assert medians == {name: statistics.median(v) for name, v in values[side].items()}
            if len(runs) > 1:
                assert section["quartiles"][side] == {
                    name: statistics.quantiles(v, n=4, method="inclusive")[::2]
                    for name, v in values[side].items()}
        for name, wins in section["wins"].items():
            pairs = list(zip(values["parent"][name], values["change"][name], strict=True))
            assert wins == {"change_lower": sum(c < p for p, c in pairs), "pairs": len(pairs)}
