"""Soft labels and the 12-scalar augmentation policy.

Shows label smoothing, the soft-target loss, and what applying a policy
to a small labeled split produces.
"""
import random
from dataclasses import replace

import numpy as np

from softaug import (
    AugmentationPolicy,
    apply_policy,
    load_bundled_lexicon,
    sample_policy,
    smooth_label,
    soft_cross_entropy,
)
from softaug.errors import DomainError
from softaug.policy import PolicySpace

# Label smoothing: (1 - eps) on the true class plus eps/n spread uniformly.
print("eps=0.0 :", smooth_label(0, 2, 0.0))
print("eps=0.1 :", smooth_label(0, 2, 0.1))
print("eps=0.3 :", smooth_label(2, 5, 0.3))

pred = np.array([0.7, 0.3])
print("loss vs one-hot :", round(soft_cross_entropy(pred, smooth_label(0, 2, 0.0)), 4))
print("loss vs eps=0.1 :", round(soft_cross_entropy(pred, smooth_label(0, 2, 0.1)), 4))

# A policy bundles: augmentation probability, suboperation mix, magnitudes,
# copies per example, and the two smoothing factors.
policy = AugmentationPolicy(
    p_aug=1.0, p_sr=0.4, p_ri=0.2, p_rs=0.2, p_rd=0.2,
    alpha_sr=0.2, alpha_ri=0.1, alpha_rs=0.1, alpha_rd=0.1,
    n_aug=2, eps_ori=0.05, eps_aug=0.25,
)

# A policy checks itself when it is built: here the mix no longer sums to 1.
try:
    replace(policy, p_sr=0.9)
except DomainError as e:
    print("rejected:", e)

data = [
    ("the movie was great and wonderful", 1),
    ("a terrible boring film with awful dialogue", 0),
]
lex = load_bundled_lexicon()
for ex in apply_policy(data, 2, policy, lex, random.Random(0)):
    label = np.round(ex.soft_label, 3)
    print(f"[{ex.provenance:>13} from #{ex.source_index}] {label} {ex.text}")

# Random policies from the default search space are always valid.
rng = random.Random(42)
drawn = sample_policy(PolicySpace(), rng)
print("\nrandom policy draw:", drawn.to_json())
