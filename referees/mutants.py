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
ENGINE = "src/prefetchlab/engine.py"
SWEEP = "src/prefetchlab/sweep.py"
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
        old="PruneSpec(args.prune or STRATEGIES[0], args.keep_fraction)",
        new='PruneSpec("mor", args.keep_fraction)',
        tests=("tests/test_cli.py::test_evaluate_flags_reach_the_report",),
    ),
    Mutant(
        "publish-skips-the-directory-check", CLI,
        old="for path in staged:  # checked first",
        new="for path in ():  # checked first",  # renames until one meets the directory
        tests=("tests/test_cli.py::test_failed_write_leaves_no_partial_outputs",),
    ),
    Mutant(
        "outcome-swaps-hits-and-misses", ENGINE,
        old=("hit_set=frozenset(compress(test, hits)),\n"
             "        miss_set=frozenset(compress(test, map(not_, hits))),"),
        new=("hit_set=frozenset(compress(test, map(not_, hits))),\n"
             "        miss_set=frozenset(compress(test, hits)),"),
        tests=("tests/test_engine.py::test_naive_replay_all_hits",
               "tests/test_engine.py::test_engine_matches_reference_replay"),
    ),
    Mutant(
        "slide-splits-time-over-outcomes", SWEEP,
        old="/ len(algorithms)",
        new="/ len(outcomes)",  # the table pass returns three outcomes for DG and MP alone
        tests=("tests/test_sweep.py::"
               "test_a_window_s_time_is_split_evenly_over_the_records_of_its_pass",),
    ),
    Mutant(
        "table-cuts-mp-one-short", ENGINE,
        old="mp_cache.update(ranked[:top_n])",
        new="mp_cache.update(ranked[:top_n - 1])",
        tests=("tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",),
    ),
    Mutant(
        "table-dg-threshold-cut-inclusive", ENGINE,
        old="if row[key] / seen < threshold:",
        new="if row[key] / seen <= threshold:",
        tests=("tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",),
    ),
    Mutant(
        "table-naive-cache-counts-the-last-request", ENGINE,
        old="naive_cache = len(occurrences) - (occurrences[test[-1]] == 1) if test else 0",
        new="naive_cache = len(occurrences)",
        tests=("tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",),
    ),
    Mutant(
        "sweep-shares-unequal-windows", SWEEP,
        old="if dg and mp and dg.lookahead_window == mp.lookahead_window:",
        new="if dg and mp:",
        tests=("tests/test_sweep.py::test_unequal_lookahead_windows_sweep_dg_and_mp_apart",),
    ),
    Mutant(
        "run-user-triggers-from-the-pruned-tail", ENGINE,
        old="training[-depth:], depth)",
        new="model_input[-depth:], depth)",
        tests=("tests/test_engine.py::"
               "test_run_user_prunes_once_and_runs_each_config_on_the_pruned_input",),
    ),
    Mutant(
        "config-list-accepts-empty", PREDICTORS,
        old="if not algorithms:",
        new="if algorithms is None:",
        tests=("tests/test_cli.py::test_library_evaluate_rejects_an_empty_config_list",
               "tests/test_sweep.py::test_sweep_user_rejects_an_empty_config_list"),
    ),
    Mutant(
        "dg-forget-keeps-zero-node-counts", PREDICTORS,
        old=("left = nodes[source] - 1\n"
             "            if left:\n"
             "                nodes[source] = left\n"
             "            else:\n"
             "                del nodes[source]"),
        new="nodes[source] -= 1",
        tests=("tests/test_predictors.py::test_forget_everything_leaves_an_empty_model",
               "tests/test_predictors.py::test_sliding_with_forget_equals_fresh_training"),
    ),
)
