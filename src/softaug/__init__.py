"""softaug: rule-based text augmentation with searched policies.

EDA/AEDA sentence perturbations, label-smoothed (soft) targets, a
TPE-based policy optimizer, and a hashed n-gram linear classifier for
low-resource text classification experiments.
"""

from .augment import aeda, eda, random_deletion, random_insertion, random_swap, synonym_replacement
from .classifier import LinearModel, TrainConfig, evaluate, featurize, predict, train
from .datasets import LabeledDataset, load_dataset, make_synthetic_reviews, make_val_split, subsample
from .harness import ExperimentConfig, EvalReport, render_report, run_experiment, run_method
from .labels import smooth_label, soft_ce_gradient, soft_cross_entropy
from .policy import AugmentationPolicy, AugmentedExample, PolicySpace, apply_policy, sample_policy
from .search import SearchConfig, TrialRecord, objective, optimize, suggest
from .textops import SynonymLexicon, detokenize, is_stopword, load_bundled_lexicon, load_lexicon, tokenize

__version__ = "0.1.0"
