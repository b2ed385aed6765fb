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
    # only a CPython 3.12 or later, whose sum() of floats is compensated, runs its tests'
    # failing cases; run.py skips the mutant where pyenv has none
    needs_python_3_12: bool = False


PREDICTORS = "src/prefetchlab/predictors.py"
ENGINE = "src/prefetchlab/engine.py"
SWEEP = "src/prefetchlab/sweep.py"
CLI = "src/prefetchlab/cli.py"
METRICS = "src/prefetchlab/metrics.py"
INGEST = "src/prefetchlab/ingest.py"
FORKJOIN = "src/prefetchlab/forkjoin.py"
TRACES = "src/prefetchlab/traces.py"
SELFTEST = "src/prefetchlab/selftest.py"

# fork_map's loop over the children's pipes, which follows the parent's own slice
READ_CHILDREN = """\
        for pid, reader in zip(pids, readers):
            data = reader.read()
            if not data:
                raise ChildProcessError(f"worker process {pid} ended without its results")
            try:
                results, exc = pickle.loads(data)
            except Exception as error:  # cut short, as when the child is killed mid-write
                raise ChildProcessError(
                    f"worker process {pid} sent results that cannot be read") from error
            if exc is not None:
                raise exc
            merged += results
"""

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
        "config-gives-every-algorithm-dgs-threshold", PREDICTORS,
        old='DEFAULT_DG_THRESHOLD if algorithm == "dg"',
        new="DEFAULT_DG_THRESHOLD if True",
        tests=("tests/test_specs.py::test_specs_keep_their_defaults_and_normalisations",
               "tests/test_predictors.py::test_config_defaults_per_algorithm"),
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
        old="_ranked(list(row), row.__getitem__)[:top_n])",
        new="_ranked(list(row), row.__getitem__)[:top_n - 1])",
        tests=("tests/test_engine.py::"
               "test_dg_table_pass_keeps_weights_at_the_threshold_and_cuts_a_row_one_over_top_n",
               "tests/test_engine.py::"
               "test_dg_table_pass_equals_dg_mp_and_naive_each_replayed_alone",
               "tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "table-dg-threshold-cut-inclusive", ENGINE,
        old="if n / seen >= threshold]",
        new="if n / seen > threshold]",
        tests=("tests/test_engine.py::"
               "test_dg_table_pass_keeps_weights_at_the_threshold_and_cuts_a_row_one_over_top_n",
               "tests/test_engine.py::"
               "test_dg_table_pass_equals_dg_mp_and_naive_each_replayed_alone",
               "tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "table-dg-all-pass-at-two-over-seen", ENGINE,
        old="1 / seen >= threshold",
        new="2 / seen >= threshold",  # a count-1 key passes where 2 / seen reaches the threshold
        tests=("tests/test_engine.py::"
               "test_dg_table_pass_keeps_weights_at_the_threshold_and_cuts_a_row_one_over_top_n",
               "tests/test_engine.py::"
               "test_dg_table_pass_equals_dg_mp_and_naive_each_replayed_alone",
               "tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "table-mp-takes-a-row-one-over-top-n", ENGINE,
        old="len(row) <= top_n",
        new="len(row) <= top_n + 1",
        tests=("tests/test_engine.py::"
               "test_dg_table_pass_keeps_weights_at_the_threshold_and_cuts_a_row_one_over_top_n",
               "tests/test_engine.py::"
               "test_dg_table_pass_equals_dg_mp_and_naive_each_replayed_alone",
               "tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "ppm-pass-threshold-strict", ENGINE,
        old="if child.count / total >= threshold])",
        new="if child.count / total > threshold])",
        tests=("tests/test_engine.py::"
               "test_ppm_pass_equals_the_engine_from_the_model_s_recent_context",
               "tests/test_sweep.py::test_ppm_sweep_records_equal_fresh_replays_of_each_window",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "ppm-pass-threshold-by-multiplication", ENGINE,
        old="if child.count / total >= threshold])",
        new="if child.count >= threshold * total])",  # 7 >= 0.28 * 25 fails
        tests=("tests/test_engine.py::"
               "test_ppm_pass_equals_the_engine_from_the_model_s_recent_context",
               "tests/test_sweep.py::test_ppm_sweep_records_equal_fresh_replays_of_each_window"),
    ),
    Mutant(
        "ppm-pass-adds-shorter-suffixes-too", ENGINE,
        old="threshold])\n                break\n",
        new="threshold])\n",
        tests=("tests/test_engine.py::"
               "test_ppm_pass_equals_the_engine_from_the_model_s_recent_context",
               "tests/test_sweep.py::test_ppm_sweep_records_equal_fresh_replays_of_each_window",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "ppm-pass-reads-the-root", ENGINE,
        old="model._suffixes[:0:-1]",
        new="model._suffixes[::-1]",
        tests=("tests/test_engine.py::"
               "test_ppm_pass_equals_the_engine_from_the_model_s_recent_context",
               "tests/test_sweep.py::test_ppm_sweep_records_equal_fresh_replays_of_each_window",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "ppm-pass-all-pass-at-two-over-the-count", ENGINE,
        old="1 / total >= threshold",
        new="2 / total >= threshold",
        tests=("tests/test_engine.py::"
               "test_ppm_pass_equals_the_engine_from_the_model_s_recent_context",
               "tests/test_sweep.py::test_ppm_sweep_records_equal_fresh_replays_of_each_window",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "table-naive-cache-counts-the-last-request", ENGINE,
        old="naive_cache = len(occurrences) - (occurrences[test[-1]] == 1) if test else 0",
        new="naive_cache = len(occurrences)",
        tests=("tests/test_engine.py::"
               "test_dg_table_pass_equals_dg_mp_and_naive_each_replayed_alone",
               "tests/test_sweep.py::test_dg_and_mp_in_one_pass_equal_their_own_sweeps",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "sweep-shares-unequal-windows", SWEEP,
        old="if dg and mp and dg.lookahead_window == mp.lookahead_window:",
        new="if dg and mp:",
        tests=("tests/test_sweep.py::test_unequal_lookahead_windows_sweep_dg_and_mp_apart",),
    ),
    Mutant(
        "sweep-replays-ppm-windows-through-the-engine", SWEEP,
        old='elif config.algorithm == "ppm":',
        new='elif config.algorithm == "ppm" and False:',  # equal outcomes, another pass
        tests=("tests/test_sweep.py::"
               "test_each_window_replays_through_the_pass_its_model_serves",),
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
    Mutant(
        "jsonl-fast-path-accepts-trailing-text", INGEST,
        old=r'if line[end:].strip(" \t\n\r"):',
        new="if end > len(line):",  # never true: what follows the first value is not read
        tests=("tests/test_ingest.py::test_jsonl_row_parses_as_json_loads_reads_it",),
    ),
    Mutant(
        "csv-fast-path-takes-padded-user-ids", INGEST,
        old="if (user_id == user_id.strip() and url == url.strip()",
        new="if (url == url.strip()",
        tests=("tests/test_ingest.py::test_csv_log_loads_as_every_row_through_build_record",
               "tests/test_ingest.py::test_padded_fields_load_alike_from_csv_and_jsonl"),
    ),
    Mutant(
        "csv-fast-path-takes-padded-urls", INGEST,
        old="if (user_id == user_id.strip() and url == url.strip()",
        new="if (user_id == user_id.strip()",
        tests=("tests/test_ingest.py::test_csv_log_loads_as_every_row_through_build_record",
               "tests/test_ingest.py::test_padded_fields_load_alike_from_csv_and_jsonl"),
    ),
    Mutant(
        "csv-fast-path-takes-non-ascii-fields", INGEST,
        old="and user_id.isascii() and url.isascii() and ts_raw.isascii()",
        new="and ts_raw.isascii()",  # a lone surrogate reaches the store
        tests=("tests/test_ingest.py::test_csv_log_loads_as_every_row_through_build_record",
               "tests/test_ingest.py::test_invalid_utf8_byte_in_a_raw_log_is_a_malformed_row"),
    ),
    Mutant(
        "csv-fast-path-takes-non-ascii-digits", INGEST,
        old="url.isascii() and ts_raw.isascii()\n",
        new="url.isascii()\n",
        tests=("tests/test_ingest.py::test_csv_log_loads_as_every_row_through_build_record",
               "tests/test_ingest.py::test_timestamp_text_must_be_ascii_digits"),
    ),
    Mutant(
        "csv-fast-path-without-a-digit-bound", INGEST,
        old="len(ts_raw) < 19",
        new="len(ts_raw) < 10 ** 6",  # int() of 5,000 digits raises past the row rule
        tests=("tests/test_ingest.py::test_csv_log_loads_as_every_row_through_build_record",),
    ),
    Mutant(
        "csv-fast-path-takes-an-empty-user-id", INGEST,
        old="and user_id and url and method",
        new="and url and method",
        tests=("tests/test_ingest.py::test_csv_log_loads_as_every_row_through_build_record",),
    ),
    Mutant(
        "jsonl-fast-path-takes-padded-user-ids", INGEST,
        old="and user_id == user_id.strip() and url == url.strip()):",
        new="and url == url.strip()):",
        tests=("tests/test_ingest.py::test_jsonl_log_loads_as_every_row_through_build_record",
               "tests/test_ingest.py::test_padded_fields_load_alike_from_csv_and_jsonl"),
    ),
    Mutant(
        "jsonl-fast-path-takes-bool-timestamps", INGEST,
        old="type(ts) is int and",
        new="isinstance(ts, int) and",
        tests=("tests/test_ingest.py::test_jsonl_log_loads_as_every_row_through_build_record",
               "tests/test_ingest.py::test_jsonl_field_of_wrong_type_is_malformed"),
    ),
    Mutant(
        "build-keeps-unordered-columns", TRACES,
        old="if ordered == timestamps:",
        new="if ordered != timestamps:",  # ordered columns sort, unordered ones do not
        tests=("tests/test_traces.py::test_user_trace_build_equals_a_stable_sort_of_the_rows",
               "tests/test_traces.py::test_user_trace_build_sorts_by_timestamp_stably"),
    ),
    Mutant(
        "quartiles-swap-interpolation-weights", INGEST,
        old="(ordered[j] * (4 - delta) + ordered[j + 1] * delta) / 4",
        new="(ordered[j] * delta + ordered[j + 1] * (4 - delta)) / 4",
        tests=("tests/test_ingest.py::test_quartiles_equal_inclusive_statistics_quantiles",
               "tests/test_ingest.py::test_tukey_upper_fence_removes_heavy_user"),
    ),
    Mutant(
        "outlier-fence-inclusive", INGEST,
        old="if n > upper or n < MIN_REQUEST_FLOOR",
        new="if n >= upper or n < MIN_REQUEST_FLOOR",
        tests=("tests/test_ingest.py::test_fence_is_strict_inequality",),
    ),
    Mutant(
        "leading-bom-kept", INGEST,
        old='encoding="utf-8-sig"',
        new='encoding="utf-8"',
        tests=("tests/test_ingest.py::test_leading_utf8_bom_is_ignored",),
    ),
    Mutant(
        "field-strip-skipped", INGEST,
        old="user_id, method, url = user_id.strip(), method.strip(), url.strip()",
        new="pass",
        tests=("tests/test_ingest.py::test_padded_fields_load_alike_from_csv_and_jsonl",),
    ),
    Mutant(
        "run-user-drops-its-last-config", ENGINE,
        old="for config, (model, train_s) in zip(configs, models):",
        new="for config, (model, train_s) in zip(configs[:-1], models):",
        tests=("tests/test_engine.py::"
               "test_run_user_prunes_once_and_runs_each_config_on_the_pruned_input",
               "tests/test_engine.py::test_run_user_returns_timing_and_outcome"),
    ),
    Mutant(
        "train-like-shares-the-copied-rows", PREDICTORS,
        old="{source: dict(row) for source, row in like.arc_counts.items()}",
        new="{source: row for source, row in like.arc_counts.items()}",
        tests=("tests/test_predictors.py::test_train_like_a_dg_or_mp_fold_equals_its_own_fold",
               "tests/test_engine.py::"
               "test_run_user_prunes_once_and_runs_each_config_on_the_pruned_input"),
    ),
    Mutant(
        "train-like-copies-a-table-of-another-window", PREDICTORS,
        old="elif config.lookahead_window != like.config.lookahead_window:",
        new="elif False:",
        tests=("tests/test_predictors.py::test_train_refuses_a_like_it_cannot_copy",),
    ),
    Mutant(
        "run-user-shares-a-fold-across-windows", ENGINE,
        old="like = folds.get(config.lookahead_window)",
        new="like = next(iter(folds.values()), None)",
        tests=("tests/test_engine.py::"
               "test_run_user_prunes_once_and_runs_each_config_on_the_pruned_input",
               "tests/test_engine.py::"
               "test_run_user_trains_each_config_once_and_replays_each_model_once"),
    ),
    Mutant(
        "train-like-sorts-naive-keys", PREDICTORS,
        old="model.seen = dict.fromkeys(like.node_counts)",
        new="model.seen = dict.fromkeys(sorted(like.node_counts))",
        tests=("tests/test_predictors.py::test_train_like_a_dg_or_mp_fold_equals_its_own_fold",
               "tests/test_cli.py::test_selftest_passes_and_writes_report"),
    ),
    Mutant(
        "ppm-suffix-walk-root-first", PREDICTORS,
        old="for node in suffixes[:0:-1]:",
        new="for node in suffixes[1:]:",  # the shortest suffix wins
        tests=("tests/test_predictors.py::test_ppm_longest_suffix_wins",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "naive-update-keeps-a-stale-list", PREDICTORS,
        old="            self.seen[key] = None\n            self._offered = None",
        new="            self.seen[key] = None",
        tests=("tests/test_predictors.py::test_naive_returns_one_list_until_a_new_key_arrives",
               "tests/test_acceptance.py::test_criterion_01_oracle_equivalence"),
    ),
    Mutant(
        "dead-private-function", CLI,
        old="def _write_csv(path: Path, header: list[str], rows) -> None:",
        new=("def _unused() -> None:\n    pass\n\n\n"
             "def _write_csv(path: Path, header: list[str], rows) -> None:"),
        tests=("tests/test_imports.py::test_every_private_function_and_class_is_referenced",),
    ),
    Mutant(
        "check-out-accepts-an-out-under-a-file", CLI,
        old="if not existing.is_dir():",
        new="if not existing.exists():",  # never true: the first existing path is accepted
        tests=("tests/test_cli.py::test_out_under_a_file_exits_1_before_the_input_is_read",),
    ),
    Mutant(
        "forkjoin-raises-the-latest-failure", FORKJOIN,
        old="merged = [fn(p) for p in payloads[:bounds[1]]]\n" + READ_CHILDREN,
        # the parent reads the children before it maps its own slice
        new=("merged = []\n" + READ_CHILDREN
             + "        merged[:0] = [fn(p) for p in payloads[:bounds[1]]]\n"),
        tests=("tests/test_cli.py::test_run_jobs_raises_the_earliest_payloads_exception",),
    ),
    Mutant(
        "forkjoin-joins-the-slices-out-of-order", FORKJOIN,
        old="merged += results",
        new="merged[:0] = results",  # each child's slice goes before those read earlier
        tests=("tests/test_acceptance.py::test_criterion_08_determinism_under_parallelism",),
    ),
    Mutant(
        "main-misses-nothing-to-report", CLI,
        old="except (OSError, ValueError, NothingToReport) as exc:",
        new="except (OSError, ValueError) as exc:",  # a traceback instead of one error line
        tests=("tests/test_cli.py::test_ingest_without_get_rows_fails",
               "tests/test_cli.py::test_store_without_users_exits_1_and_writes_nothing"),
    ),
    Mutant(
        "fork-parent-takes-the-child-branch", FORKJOIN,
        old="if pid == 0:",
        new="if pid != 0:",  # the pytest process itself ends in the child's os._exit
        tests=("tests/test_cli.py::test_run_jobs_equals_the_serial_map",),
    ),
    Mutant(
        "one-worker-loads-forkjoin", CLI,
        old="if shares <= 1:",
        new="if shares < 1:",  # one share goes through fork_map, which forks nothing
        tests=("tests/test_cli.py::test_one_worker_evaluate_leaves_forkjoin_unloaded",),
    ),
    Mutant(
        "cutoff-trend-from-the-second-mean", SWEEP,
        old="total = values[-1] - values[0]",
        new="total = values[-1] - values[1]",
        tests=("tests/test_sweep.py::test_cutoff_scan_equals_its_definition",),
    ),
    Mutant(
        "cutoff-settles-only-below-epsilon", SWEEP,
        old="if abs(values[i + 1] - values[i]) > epsilon:",
        new="if abs(values[i + 1] - values[i]) >= epsilon:",
        tests=("tests/test_sweep.py::test_cutoff_scan_equals_its_definition",),
    ),
    Mutant(
        "cutoff-flat-only-below-epsilon", SWEEP,
        old="if abs(total) <= epsilon:",
        new="if abs(total) < epsilon:",
        tests=("tests/test_sweep.py::test_cutoff_scan_equals_its_definition",),
    ),
    Mutant(
        "user-traces-always-equal", TRACES,
        old="return type(other) is UserTrace and (",
        new="return type(other) is UserTrace or (",
        tests=("tests/test_traces.py::test_traces_that_differ_in_one_field_compare_unequal",),
    ),
    Mutant(
        "pairwise-sum-runs-8-values", TRACES,
        old="if n < 8:",
        new="if n <= 8:",
        tests=("tests/test_traces.py::test_population_summary_equals_numpy_bit_for_bit",),
    ),
    Mutant(
        "prune-reductions-of-the-second-algorithm", CLI,
        old="for entry in results[algorithms[0]].values() if entry[\"prune\"]]",
        new="for entry in results[algorithms[1]].values() if entry[\"prune\"]]",
        tests=("tests/test_cli.py::test_evaluate_prune_with_one_algorithm_reports_its_deltas",),
    ),
    Mutant(
        "prune-delta-of-a-none-mean", CLI,
        old="None if after is None or before is None else after - before",
        new="None if after is None and before is None else after - before",
        tests=("tests/test_cli.py::"
               "test_prune_delta_is_none_where_a_mean_is_none_in_one_regime_only",),
    ),
    Mutant(
        "store-keeps-the-last-of-a-repeated-key", INGEST,
        old="json.load(fh, object_pairs_hook=_unique_keys)",
        new="json.load(fh)",
        tests=("tests/test_cli.py::test_hostile_store_exits_2_with_error_line",),
    ),
    Mutant(
        "store-names-the-wrong-repeated-key", INGEST,
        old="keys.count(k) > 1",
        new="keys.count(k) >= 1",  # names an object's first key
        tests=("tests/test_cli.py::test_hostile_store_exits_2_with_error_line",),
    ),
    Mutant(
        "store-takes-an-empty-user-id", INGEST,
        old="if not user_id or user_id",
        new="if user_id",
        tests=("tests/test_cli.py::test_hostile_store_exits_2_with_error_line",),
    ),
    Mutant(
        "store-takes-a-padded-user-id", INGEST,
        old="or user_id != user_id.strip():",
        new=":",
        tests=("tests/test_cli.py::test_hostile_store_exits_2_with_error_line",),
    ),
    Mutant(
        "store-takes-a-padded-url", INGEST,
        old="and url and url == url.strip() for",
        new="and url for",
        tests=("tests/test_cli.py::test_hostile_store_exits_2_with_error_line",),
    ),
    Mutant(
        "bad-header-on-line-2", INGEST,
        old='raise LogParseError(1, f"bad header',
        new='raise LogParseError(2, f"bad header',
        tests=("tests/test_ingest.py::test_bad_header_error_names_line_1",),
    ),
    Mutant(
        "selftest-default-seed-1", CLI,
        old='p.add_argument("--seed", type=int, default=0,',
        new='p.add_argument("--seed", type=int, default=1,',
        tests=("tests/test_cli.py::test_selftest_without_seed_runs_and_records_seed_0",),
    ),
    Mutant(
        "workers-default-one", CLI,
        old="default=os.cpu_count() or 1,",
        new="default=os.cpu_count() and 1,",
        tests=("tests/test_cli.py::test_workers_defaults_to_the_cpu_count",),
    ),
    Mutant(
        "workers-default-two-without-a-cpu-count", CLI,
        old="default=os.cpu_count() or 1,",
        new="default=os.cpu_count() or 2,",
        tests=("tests/test_cli.py::test_workers_defaults_to_the_cpu_count",),
    ),
    Mutant(
        "evaluate-elapsed-adds-the-start", CLI,
        old='"elapsed_s": time.perf_counter() - started,',  # the comma leaves out sweep()'s
        new='"elapsed_s": time.perf_counter() + started,',
        tests=("tests/test_cli.py::test_runtime_is_bounded_by_the_wall_time_around_main",),
    ),
    Mutant(
        "sweep-elapsed-adds-the-start", CLI,
        old='"elapsed_s": time.perf_counter() - started}',
        new='"elapsed_s": time.perf_counter() + started}',
        tests=("tests/test_cli.py::test_runtime_is_bounded_by_the_wall_time_around_main",),
    ),
    Mutant(
        "sweep-results-zip-the-users-jobs", CLI,
        old="[build_sweep_result([job[i] for job in jobs], spec) for i in range(len(configs))]",
        new="[build_sweep_result(sweeps, spec) for sweeps in zip(*jobs)]",  # no user, no config
        tests=("tests/test_cli.py::"
               "test_library_sweep_without_a_window_gives_one_empty_section_per_config",),
    ),
    Mutant(
        "sweep-leaves-the-configs-to-its-jobs", CLI,
        old="algorithms = _config_algorithms(configs)\n    _check_options(None, workers)",
        new="algorithms = [c.algorithm for c in configs]\n    _check_options(None, workers)",
        tests=("tests/test_cli.py::"
               "test_library_sweep_rejects_bad_configs_or_workers_without_users",),
    ),
    Mutant(
        "sweep-defaults-to-two-workers", CLI,
        old="workers: int = 1) -> tuple[dict, list[SweepResult]]:",
        new="workers: int = 2) -> tuple[dict, list[SweepResult]]:",
        tests=("tests/test_cli.py::test_library_sweep_runs_one_worker_unless_told_otherwise",),
    ),
    Mutant(
        "selftest-counts-no-case", SELFTEST,
        old="            done += 1\n",
        new="",
        tests=("tests/test_acceptance.py::test_criterion_02_train_equals_fold",
               "tests/test_selftest.py::test_a_check_reports_its_first_failing_case"),
    ),
    Mutant(
        "oracle-check-replays-through-the-engine-alone", SELFTEST,
        old='for path, actual in (("engine", run.outcome), by_pass):',
        new='for path, actual in (("engine", run.outcome),):',
        tests=("tests/test_selftest.py::test_a_check_reports_its_first_failing_case",),
    ),
    Mutant(
        "publish-leaves-stray-temporaries", CLI,
        old="if stray.fullmatch(path.name):",
        new="if stray.fullmatch(path.name) and False:",
        tests=("tests/test_cli.py::"
               "test_publish_removes_the_temporaries_that_a_killed_publish_left",),
    ),
    Mutant(
        "publish-removes-temporaries-of-any-pid", CLI,
        old=r'\.[0-9]+\.tmp")',
        new=r'\..+\.tmp")',
        tests=("tests/test_cli.py::"
               "test_publish_removes_no_file_but_a_stray_temporary_of_its_own_names",),
    ),
    Mutant(
        "run-jobs-forks-past-the-cpu-count", CLI,
        old="min(workers, len(users), os.cpu_count() or 1)",
        new="min(workers, len(users))",
        tests=("tests/test_cli.py::test_run_jobs_forks_at_most_one_process_per_cpu",),
    ),
    Mutant(
        "means-with-builtin-sum", METRICS,
        old='"mean": (_running_sum(defined) / len(defined)) if defined else None,',
        new='"mean": (sum(defined) / len(defined)) if defined else None,',
        tests=("tests/test_cli.py::test_outputs_match_recorded_digests_on_every_python",),
        needs_python_3_12=True,
    ),
)
