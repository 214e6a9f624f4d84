"""Find a good augmentation policy with the TPE-based optimizer.

A short search (10 trials) on the synthetic surrogate: random startup
trials first, then density-ratio proposals. Prints the running best
validation accuracy and the winning policy.
"""
import random

from softaug import (
    SearchConfig,
    TrainConfig,
    load_bundled_lexicon,
    make_synthetic_reviews,
    make_val_split,
    optimize,
    subsample,
)
from softaug.policy import PolicySpace

data = make_synthetic_reviews()
lex = load_bundled_lexicon()
sub = subsample(data, 100, seed=0)
train_split, val_split = make_val_split(sub.split("train"), 0.2, seed=0)

cfg = SearchConfig(n_trials=10, n_startup=4, runs_per_trial=2)
best_policy, log = optimize(train_split, val_split, 2, PolicySpace(), lex, cfg, TrainConfig(), 0)

running = -1.0
for record in log:
    running = max(running, record.score)
    phase = "startup" if record.trial_index < cfg.n_startup else "tpe"
    print(
        f"trial {record.trial_index:2d} [{phase:>7}] "
        f"score {record.score:.3f}  best so far {running:.3f}"
    )

print("\nbest policy:")
for key, value in sorted(best_policy.to_dict().items()):
    print(f"  {key:>10} = {value:.3f}" if isinstance(value, float) else f"  {key:>10} = {value}")
