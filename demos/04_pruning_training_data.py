"""
Shrinking the training data before building a model
===================================================

Three pruning strategies, all of the shape "group the training requests,
keep the top fifth of groups": by request popularity (mor), by domain
volume (mad), or by how repeat-heavy a domain is (msd). Keeping less data
makes training cheaper; the question is what it costs in accuracy.
"""

import random

from prefetchlab import PredictorConfig, PruneSpec, SplitSpec, metrics_report, prune, run_user
from prefetchlab.synth import bursty_trace

rng = random.Random(5)
trace = bursty_trace(rng, "demo", 400, repertoire_size=12, noise_rate=0.15)
training = trace.url_keys[:320]

for strategy in ("mor", "mad", "msd"):
    result = prune(training, PruneSpec(strategy, keep_fraction=0.2))
    print(f"{strategy}: kept {len(result.kept_training):>3}/{len(training)} requests "
          f"({result.groups_kept}/{result.groups_total} groups, "
          f"{result.size_reduction:.0%} smaller)")

# accuracy cost: replay the same trace with and without mor pruning; run_user
# prunes the training slice once and trains every config it is given on it
configs = [PredictorConfig(algorithm="dg"), PredictorConfig(algorithm="mp")]
spec = SplitSpec(training_ratio=0.8)
full = run_user(trace, configs, spec)
cut = run_user(trace, configs, spec, prune_spec=PruneSpec("mor", keep_fraction=0.2))

for label, runs in (("full training", full), ("mor-pruned", cut)):
    for config, rr in zip(configs, runs):
        dr = metrics_report("demo", config.algorithm, rr.outcome).dynamic_recall
        print(f"{label:<14} {config.algorithm:<3} dynamic recall {dr:.3f}  "
              f"train+replay {rr.elapsed_s * 1000:.1f} ms")

# mor keeps only the most-revisited urls, the ones most worth
# prefetching -- the model shrinks a lot while recall gives up a little
