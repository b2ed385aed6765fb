"""
How much training data is enough?
=================================

Slide a fixed-size window along each trace, score one model per window
(slid along with the window, and equal to one trained afresh on it), and
average the scores per window size. Means rise while extra
history still teaches the model something new, then flatten; the size
where they settle is the training cut-off point.
"""

from prefetchlab import PredictorConfig, SlidingWindowSpec
from prefetchlab.cli import sweep
from prefetchlab.synth import bursty_traces

traces = bursty_traces(seed=42, count=40, min_length=520, max_length=600,
                       repertoire_size=25, noise_rate=0.1)
sizes = (25, 50, 100, 200, 300, 400, 500)

summary, (result,) = sweep(traces, [PredictorConfig(algorithm="naive")],
                           SlidingWindowSpec(window_sizes=sizes))
print(f"{len(result.records)} models trained across {len(traces)} users\n")

print("window  models  dynamic recall")
for size in sizes:
    cell = result.means[size]["dynamic_recall"]
    models = sum(1 for r in result.records if r.window_size == size)
    print(f"{size:>6}  {models:>6}  {cell['mean']:.3f}")

# the summary holds the cut-off of each metric's per-size means, as sweep_summary.json does
found = summary["algorithms_results"]["naive"]["cutoffs"]["dynamic_recall"]
print(f"\ntrend {found['trend']}; means settle at window size {found['cutoff']}")
print("beyond that, bigger training windows buy nothing: the user's")
print("repertoire is already fully represented")
