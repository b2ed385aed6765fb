"""
Replaying held-out requests through a prefetch cache
====================================================

The harness splits a trace 80/20, trains on the front, then walks the test
slice one request at a time: predict from the trailing context, prefetch
any prediction not already cached, then check whether the actual request
is a cache hit. The model keeps learning during the walk (the last step),
so late test requests benefit from earlier ones.
"""

from prefetchlab import (PredictorConfig, SplitSpec, metrics_report, run_user,
                         UserTrace)

pages = [f"https://wiki.example/page/{name}" for name in
         ("start", "setup", "api", "start", "setup", "api",
          "start", "setup", "api", "faq")]
# a trace is two parallel columns: timestamps (ms) and url keys
trace = UserTrace.build("demo", [1_700_000_000_000 + i * 1000 for i in range(len(pages))],
                        pages)

config = PredictorConfig(algorithm="dg", lookahead_window=2)
result = run_user(trace, config, SplitSpec(training_ratio=0.8))
outcome = result.outcome

# 10 requests -> 8 train, 2 test ("api", "faq")
print("cache ended with", outcome.cache_size, "urls "
      f"({outcome.prefetch_count} prefetched, never evicted)")
print("hits  ", sorted(u.rsplit('/', 1)[-1] for u in outcome.hit_set))
print("misses", sorted(u.rsplit('/', 1)[-1] for u in outcome.miss_set))
print(f"request-level: {outcome.hit_count} hit / {outcome.miss_count} miss")

# the three scores: precision over prefetched urls, recall over unique
# test urls, recall over individual requests
report = metrics_report("demo", "dg", outcome)
print(f"static precision {report.static_precision:.2f}  "
      f"static recall {report.static_recall:.2f}  "
      f"dynamic recall {report.dynamic_recall:.2f}")

# "faq" was never seen in training, so no model can prefetch it; the miss
# is the irreducible cost of a first visit
