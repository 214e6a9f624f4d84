"""Sequential model-based policy search with a tree-structured Parzen
estimator.

The sampler models each of the 12 policy dimensions independently: after
a random startup phase, the trial history is split into a "good" set (the
top gamma fraction by score) and a "bad" set, per-dimension densities
l(x) and g(x) are fitted over them (Gaussian kernels for continuous
dimensions, add-one-smoothed frequencies for the categorical copy count),
candidates are drawn from l, and the candidate maximizing the product of
l/g ratios is suggested. The suboperation mix is modeled in the four
unnormalized weight coordinates and renormalized after selection.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

from .classifier import TrainConfig, train_runs
from .errors import DomainError, TrainingError, is_real, require_counts
from .policy import AugmentationPolicy, PolicySpace, _renormalize, apply_policy, sample_policy
from .textops import SynonymLexicon

__all__ = [
    "TrialRecord",
    "SearchConfig",
    "suggest",
    "objective",
    "optimize",
]

_SEED_RANGE = 2**32


@dataclass(frozen=True)
class TrialRecord:
    policy: AugmentationPolicy
    score: float  # mean of run_scores
    run_scores: tuple[float, ...]
    trial_index: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "score": self.score,
            "run_scores": list(self.run_scores),
            "policy": self.policy.to_dict(),
        }


@dataclass(frozen=True)
class SearchConfig:
    n_trials: int = 20
    n_startup: int = 5
    gamma: float = 0.25
    n_candidates: int = 24
    runs_per_trial: int = 3

    def __post_init__(self):
        require_counts(self, "n_trials", "n_startup", "n_candidates", "runs_per_trial")
        # degenerate one-trial budgets are allowed (pure startup)
        if self.n_trials > 1 and self.n_startup >= self.n_trials:
            raise DomainError("need n_startup < n_trials")
        if not (is_real(self.gamma) and 0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma: {self.gamma!r} must be a number in (0, 1)")


# --- policy <-> 12-vector for the per-dimension density model ------------

_CONT_DIMS = (
    ("p_aug", "p_aug"),
    ("p_sr", "weight"),
    ("p_ri", "weight"),
    ("p_rs", "weight"),
    ("p_rd", "weight"),
    ("alpha_sr", "alpha_sr"),
    ("alpha_ri", "alpha_ri"),
    ("alpha_rs", "alpha_rs"),
    ("alpha_rd", "alpha_rd"),
    ("eps_ori", "eps_ori"),
    ("eps_aug", "eps_aug"),
)  # (policy field, space bounds field); normalized probs double as weights


def _policy_to_vector(p: AugmentationPolicy) -> tuple:
    return tuple(getattr(p, f) for f, _ in _CONT_DIMS) + (p.n_aug,)


def _vector_to_policy(vec: tuple, space: PolicySpace) -> AugmentationPolicy:
    values = {}
    for (fname, bname), x in zip(_CONT_DIMS, vec[:-1]):
        lo, hi = getattr(space, bname)
        values[fname] = min(max(x, lo), hi)
    probs = _renormalize([values["p_sr"], values["p_ri"], values["p_rs"], values["p_rd"]])
    values.update(p_sr=probs[0], p_ri=probs[1], p_rs=probs[2], p_rd=probs[3])
    return AugmentationPolicy(n_aug=int(vec[-1]), **values)


def _silverman_bandwidth(xs: tuple[float, ...], lo: float, hi: float) -> float:
    floor = 0.01 * (hi - lo)
    n = len(xs)
    if n < 2:
        return floor
    mean = sum(xs) / n
    std = math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))
    srt = sorted(xs)
    iqr = srt[int(0.75 * (n - 1))] - srt[int(0.25 * (n - 1))]
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return max(0.9 * spread * n ** (-0.2), floor)


def _kde_logpdf(x: float, points: tuple[float, ...], bw: float) -> float:
    norm = 1.0 / (bw * math.sqrt(2 * math.pi))
    total = sum(norm * math.exp(-0.5 * ((x - p) / bw) ** 2) for p in points)
    return math.log(max(total / len(points), 1e-300))


def _cat_freq(value, values: tuple, choices: tuple) -> float:
    """Add-one-smoothed frequency of `value` among `values`."""
    return (sum(1 for v in values if v == value) + 1) / (len(values) + len(choices))


def suggest(
    history: list[TrialRecord],
    space: PolicySpace,
    cfg: SearchConfig,
    rng: random.Random,
) -> AugmentationPolicy:
    """Next policy to try: a prior draw during startup, a TPE proposal after."""
    ranked = sorted(history, key=lambda r: (-r.score, r.trial_index))
    n_good = math.ceil(cfg.gamma * len(history))
    good = [_policy_to_vector(r.policy) for r in ranked[:n_good]]
    bad = [_policy_to_vector(r.policy) for r in ranked[n_good:]]
    # during startup, or while the history is too small to split, keep
    # exploring the prior
    if len(history) < cfg.n_startup or not bad:
        return sample_policy(space, rng)

    bounds = [getattr(space, bname) for _, bname in _CONT_DIMS]
    # bandwidth from the whole history per dimension: estimating it from the
    # good/bad subsets alone collapses once the good set concentrates, and a
    # collapsed l(x) stops proposing anything outside the current best point
    good_cols, bad_cols = list(zip(*good)), list(zip(*bad))  # one tuple per dimension
    bw = [_silverman_bandwidth(good_cols[d] + bad_cols[d], *bounds[d]) for d in range(11)]
    good_cats, bad_cats = good_cols[-1], bad_cols[-1]
    cat_probs = [_cat_freq(c, good_cats, space.n_aug_choices) for c in space.n_aug_choices]

    best_vec, best_ratio = None, -math.inf
    for _ in range(cfg.n_candidates):
        vec = []
        for d in range(11):
            lo, hi = bounds[d]
            center = good[rng.randrange(len(good))][d]
            vec.append(min(max(rng.gauss(center, bw[d]), lo), hi))
        vec.append(rng.choices(space.n_aug_choices, cat_probs)[0])

        ratio = 0.0
        for d in range(11):
            ratio += _kde_logpdf(vec[d], good_cols[d], bw[d])
            ratio -= _kde_logpdf(vec[d], bad_cols[d], bw[d])
        ratio += math.log(_cat_freq(vec[-1], good_cats, space.n_aug_choices))
        ratio -= math.log(_cat_freq(vec[-1], bad_cats, space.n_aug_choices))
        if ratio > best_ratio:
            best_vec, best_ratio = tuple(vec), ratio
    return _vector_to_policy(best_vec, space)


# --- objective and the optimization loop ---------------------------------


def objective(
    policy: AugmentationPolicy,
    train_split: list[tuple[str, int]],
    val_split: list[tuple[str, int]],
    n_class: int,
    lex: SynonymLexicon,
    cfg: SearchConfig,
    train_cfg: TrainConfig,
    rng: random.Random,
) -> tuple[tuple[float, ...], float]:
    """Train runs_per_trial classifiers with train_cfg on policy-augmented
    data; each run's score is its best validation accuracy. Returns
    (run_scores, mean).

    The run seeds are drawn from `rng` first; run i augments with its own
    random.Random(seed i), which then shuffles its training. The runs train
    in lockstep through one train_runs call: their texts and the val split
    are indexed once, and each step scores the batches of the runs still
    going with one gather and one softmax and steps them with one flat
    scatter-add. Each run's score is the one a train call of its own gives."""
    rngs = [random.Random(rng.randrange(_SEED_RANGE)) for _ in range(cfg.runs_per_trial)]
    runs = [apply_policy(train_split, n_class, policy, lex, run_rng) for run_rng in rngs]
    fits = train_runs(runs, val_split, n_class, train_cfg, rngs)
    for fit in fits:  # the first failed run's error, as separate trainings would raise it
        if isinstance(fit, TrainingError):
            raise fit
    run_scores = tuple(max(h.val_accuracy for h in history) for _, history in fits)
    return run_scores, sum(run_scores) / len(run_scores)


def optimize(
    train_split: list[tuple[str, int]],
    val_split: list[tuple[str, int]],
    n_class: int,
    space: PolicySpace,
    lex: SynonymLexicon,
    cfg: SearchConfig,
    train_cfg: TrainConfig,
    seed: int,
    trial_log=None,
    *,
    smoothing: bool = True,
) -> tuple[AugmentationPolicy, list[TrialRecord]]:
    """Run n_trials suggest->objective iterations, drawing from
    random.Random(seed) and training with train_cfg. smoothing=False pins
    each suggestion's eps_ori and eps_aug to 0 (the no-label-smoothing
    ablation; no rng draw). Returns the best-scoring policy (ties resolve
    to the earliest trial) and the full trial log.

    `trial_log`, if given, is a writable text stream receiving one JSON
    trial record per line as each trial completes, so a partial log
    survives an aborted search.
    """
    rng = random.Random(seed)
    history: list[TrialRecord] = []
    for t in range(cfg.n_trials):
        policy = suggest(history, space, cfg, rng)
        if not smoothing:
            policy = replace(policy, eps_ori=0.0, eps_aug=0.0)
        trial_seed = rng.randrange(_SEED_RANGE)
        run_scores, score = objective(
            policy, train_split, val_split, n_class, lex, cfg, train_cfg, random.Random(trial_seed)
        )
        record = TrialRecord(policy, score, run_scores, t, trial_seed)
        history.append(record)
        if trial_log is not None:
            trial_log.write(json.dumps(record.to_dict()) + "\n")
            trial_log.flush()
    best = max(history, key=lambda r: (r.score, -r.trial_index))
    return best.policy, history
