"""Mutants of the program that the test suite must kill.

A mutant replaces the one occurrence of ``old`` in ``path`` with ``new``;
under it, the pytest node ids in ``tests`` must fail. ``run.py`` applies
each mutant alone to a copy of the repository and runs its tests there.
``tests/test_referees.py`` checks that each ``old`` occurs exactly once in
``src/``, so code that moves or changes turns a mutant into a failing test
instead of one that quietly mutates nothing.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


PREDICTORS = "src/prefetchlab/predictors.py"
CLI = "src/prefetchlab/cli.py"

MUTANTS = (
    Mutant(
        "ppm-forget-keeps-emptied-nodes", PREDICTORS,
        old="if child.count == 1:",
        new="if child.count == 0:",  # a count-1 node is decremented to 0 and kept
        tests=("tests/test_predictors.py::test_ppm_node_counts_are_path_occurrences",
               "tests/test_predictors.py::test_forget_everything_leaves_an_empty_model"),
    ),
    Mutant(
        "ppm-update-skips-the-deepest-level", PREDICTORS,
        old="del suffixes[self._order + 1:]",
        new="del suffixes[self._order:]",
        tests=("tests/test_predictors.py::test_ppm_node_counts_are_path_occurrences",
               "tests/test_predictors.py::test_ppm_order_1_deterministic_successor"),
    ),
    Mutant(
        "dg-threshold-strict", PREDICTORS,
        old="if n / occurrences >= threshold]",
        new="if n / occurrences > threshold]",
        tests=("tests/test_predictors.py::test_dg_threshold_filters",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "configs-ignore-threshold-order-and-top-n", CLI,
        old="PredictorConfig(a, args.window, args.threshold, args.ppm_order, args.top_n)",
        new="PredictorConfig(a, args.window)",
        tests=("tests/test_cli.py::test_evaluate_flags_reach_the_report",
               "tests/test_cli.py::test_sweep_flags_reach_the_outputs"),
    ),
    Mutant(
        "configs-ignore-window", CLI,
        old="PredictorConfig(a, args.window, args.threshold, args.ppm_order, args.top_n)",
        new=("PredictorConfig(a, DEFAULT_LOOKAHEAD_WINDOW, args.threshold, args.ppm_order, "
             "args.top_n)"),
        tests=("tests/test_cli.py::test_evaluate_flags_reach_the_report",
               "tests/test_cli.py::test_sweep_flags_reach_the_outputs"),
    ),
    Mutant(
        "prune-always-mor", CLI,
        old="PruneSpec(args.prune, args.keep_fraction)",
        new='PruneSpec("mor", args.keep_fraction)',
        tests=("tests/test_cli.py::test_evaluate_flags_reach_the_report",),
    ),
)
