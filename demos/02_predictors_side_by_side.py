"""
The four predictors on one request sequence
===========================================

Same history, four models: a dependency graph (dg), an order-m context
trie (ppm), a most-popular successor table (mp), and the baseline that
simply predicts everything it has seen (naive).
"""

from prefetchlab import PredictorConfig, train

A = "https://portal.example/home"
B = "https://portal.example/inbox"
C = "https://portal.example/report?week=32"

history = [A, B, C, A, B, A, B, C, A, C]

for algorithm in ("dg", "ppm", "mp", "naive"):
    config = PredictorConfig(algorithm=algorithm, lookahead_window=2, ppm_order=2, top_n=2)
    model = train(config, history)
    guesses = model.predict([B])  # what follows the inbox?
    tail = [u.rsplit("/", 1)[-1] for u in guesses]
    print(f"{algorithm:<6} context [inbox] -> {tail}")

# dg and mp score successors inside a lookahead window, so order within a
# page-load burst does not matter much; ppm conditions on the exact
# trailing context and needs [A, B] to answer differently than [B]:
config = PredictorConfig(algorithm="ppm", ppm_order=2)
model = train(config, history)
print("ppm    context [home, inbox] ->",
      [u.rsplit("/", 1)[-1] for u in model.predict([A, B])])

# the naive baseline ignores context entirely; its guesses are every URL
# seen so far, which makes it the ceiling on what history can recall
config = PredictorConfig(algorithm="naive")
model = train(config, history)
print("naive  predicts", len(model.predict([C])), "of 3 seen URLs, any context")
