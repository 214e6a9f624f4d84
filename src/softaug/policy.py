"""The 12-scalar augmentation policy: validation, sampling, application.

A policy bundles the augmentation probability, the suboperation mix, the
four magnitudes, the copies-per-example count, and the two label smoothing
factors. Applying it to a labeled split yields the soft-labeled training
set: every original (smoothed with eps_ori) followed by the augmented
copies (smoothed with eps_aug), grouped by source example.
"""
from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, asdict

import numpy as np

from .augment import EdaParams, aeda, eda
from .errors import DomainError
from .labels import smooth_label
from .textops import SynonymLexicon, detokenize, tokenize

__all__ = [
    "AugmentationPolicy",
    "PolicySpace",
    "AugmentedExample",
    "validate_policy",
    "sample_policy",
    "apply_policy",
]

logger = logging.getLogger(__name__)

_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class AugmentationPolicy:
    p_aug: float
    p_sr: float
    p_ri: float
    p_rs: float
    p_rd: float
    alpha_sr: float
    alpha_ri: float
    alpha_rs: float
    alpha_rd: float
    n_aug: int
    eps_ori: float
    eps_aug: float

    def eda_params(self) -> EdaParams:
        return EdaParams(
            self.alpha_sr,
            self.alpha_ri,
            self.alpha_rs,
            self.alpha_rd,
            (self.p_sr, self.p_ri, self.p_rs, self.p_rd),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "AugmentationPolicy":
        return AugmentationPolicy(**{k: d[k] for k in AugmentationPolicy.__dataclass_fields__})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "AugmentationPolicy":
        return AugmentationPolicy.from_dict(json.loads(s))


def validate_policy(p: AugmentationPolicy) -> list[str]:
    """Every violated invariant, named by field; empty list means valid."""
    violations = []
    if not 0.0 <= p.p_aug <= 1.0:
        violations.append(f"p_aug: {p.p_aug} not in [0, 1]")
    weights = (p.p_sr, p.p_ri, p.p_rs, p.p_rd)
    for name, w in zip(("p_sr", "p_ri", "p_rs", "p_rd"), weights):
        if w < 0:
            violations.append(f"{name}: {w} is negative")
    if abs(sum(weights) - 1.0) > _SIMPLEX_TOL:
        violations.append(f"p_sr+p_ri+p_rs+p_rd: sum = {sum(weights)}, expected 1")
    for name in ("alpha_sr", "alpha_ri", "alpha_rs", "alpha_rd"):
        a = getattr(p, name)
        if not 0.0 <= a <= 0.5:
            violations.append(f"{name}: {a} not in [0, 0.5]")
    if not (isinstance(p.n_aug, int) and p.n_aug >= 1):
        violations.append(f"n_aug: {p.n_aug} must be an integer >= 1")
    if not 0.0 <= p.eps_ori <= 0.5:
        violations.append(f"eps_ori: {p.eps_ori} not in [0, 0.5]")
    if not 0.0 <= p.eps_aug <= 0.9:
        violations.append(f"eps_aug: {p.eps_aug} not in [0, 0.9]")
    return violations


@dataclass(frozen=True)
class PolicySpace:
    """Per-dimension search bounds. Continuous dims are uniform intervals;
    n_aug is categorical. Suboperation mix is sampled as four independent
    weights then normalized onto the simplex."""

    p_aug: tuple[float, float] = (0.1, 1.0)
    weight: tuple[float, float] = (0.01, 1.0)  # shared bound for p_sr..p_rd weights
    alpha_sr: tuple[float, float] = (0.01, 0.3)
    alpha_ri: tuple[float, float] = (0.01, 0.3)
    alpha_rs: tuple[float, float] = (0.01, 0.3)
    alpha_rd: tuple[float, float] = (0.01, 0.3)
    n_aug_choices: tuple[int, ...] = (1, 2, 4, 8)
    eps_ori: tuple[float, float] = (0.0, 0.3)
    eps_aug: tuple[float, float] = (0.0, 0.75)

    def __post_init__(self):
        for name in ("p_aug", "weight", "alpha_sr", "alpha_ri", "alpha_rs", "alpha_rd",
                     "eps_ori", "eps_aug"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise DomainError(f"degenerate bounds for {name}: [{lo}, {hi}]")
        if not self.n_aug_choices:
            raise DomainError("n_aug_choices is empty")

    @staticmethod
    def from_dict(d: dict) -> "PolicySpace":
        kwargs = {}
        for key, val in d.items():
            if key == "n_aug_choices":
                kwargs[key] = tuple(int(v) for v in val)
            else:
                kwargs[key] = (float(val[0]), float(val[1]))
        return PolicySpace(**kwargs)


def sample_policy(space: PolicySpace, rng: random.Random) -> AugmentationPolicy:
    """Uniform prior draw: continuous dims uniform in bounds, the mix as
    four normalized Uniform(weight-bounds) draws, n_aug uniform categorical."""
    probs = _renormalize([rng.uniform(*space.weight) for _ in range(4)])
    return AugmentationPolicy(
        p_aug=rng.uniform(*space.p_aug),
        p_sr=probs[0],
        p_ri=probs[1],
        p_rs=probs[2],
        p_rd=probs[3],
        alpha_sr=rng.uniform(*space.alpha_sr),
        alpha_ri=rng.uniform(*space.alpha_ri),
        alpha_rs=rng.uniform(*space.alpha_rs),
        alpha_rd=rng.uniform(*space.alpha_rd),
        n_aug=rng.choice(space.n_aug_choices),
        eps_ori=rng.uniform(*space.eps_ori),
        eps_aug=rng.uniform(*space.eps_aug),
    )


def _renormalize(weights: list[float]) -> list[float]:
    # push the float residue onto the largest component so the sum is exact
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[probs.index(max(probs))] += 1.0 - sum(probs)
    return probs


@dataclass(frozen=True)
class AugmentedExample:
    text: str
    soft_label: np.ndarray
    provenance: str  # "original" | "eda-augmented"
    source_index: int

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "soft_label": [float(p) for p in self.soft_label],
            "provenance": self.provenance,
            "source_index": self.source_index,
        }


def apply_policy(
    split: list[tuple[str, int]],
    n_class: int,
    policy: AugmentationPolicy,
    lex: SynonymLexicon,
    rng: random.Random,
    *,
    op: str = "eda",
) -> list[AugmentedExample]:
    """Emit every original (eps_ori smoothing) then, for each original
    selected with probability p_aug, n_aug copies (eps_aug smoothing),
    grouped by source index. `op` makes each copy: "eda" with the policy's
    mix and magnitudes, or "aeda" punctuation insertion. With p_aug = 0
    nothing is selected and rng is not drawn from."""
    if not split:
        raise DomainError("empty dataset")
    if op not in ("eda", "aeda"):
        raise DomainError(f"unknown augmentation op {op!r}")
    violations = validate_policy(policy)
    if violations:
        raise DomainError("invalid policy: " + "; ".join(violations))

    out = [
        AugmentedExample(text, smooth_label(y, n_class, policy.eps_ori), "original", i)
        for i, (text, y) in enumerate(split)
    ]
    params = policy.eda_params()
    for i, (text, y) in enumerate(split):
        if not policy.p_aug or rng.random() >= policy.p_aug:
            continue
        tokens = tokenize(text)
        if not tokens:
            logger.warning("example %d tokenizes to empty; skipping its augmentation", i)
            continue
        for _ in range(policy.n_aug):
            aug_tokens = eda(tokens, params, lex, rng) if op == "eda" else aeda(tokens, rng)
            out.append(
                AugmentedExample(
                    detokenize(aug_tokens),
                    smooth_label(y, n_class, policy.eps_aug),
                    "eda-augmented",
                    i,
                )
            )
    return out


def write_augmented_jsonl(path, examples: list[AugmentedExample]):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(json.dumps(ex.to_dict()) + "\n")
