"""The 12-scalar augmentation policy: validation, sampling, application.

A policy bundles the augmentation probability, the suboperation mix, the
four magnitudes, the copies-per-example count, and the two label smoothing
factors. Applying it to a labeled split yields the soft-labeled training
set: every original (smoothed with eps_ori) followed by the augmented
copies (smoothed with eps_aug), grouped by source example. Each selected
source is prepared once per call and its copies drawn from that; the
examples share one read-only soft-label array per (class, eps).
"""
from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, asdict

import numpy as np

from .augment import aeda, cumulative_mix, eda_copies
from .errors import DomainError, is_int, is_real
from .labels import smooth_label
from .textops import SynonymLexicon, detokenize, tokenize

__all__ = [
    "AugmentationPolicy",
    "PolicySpace",
    "AugmentedExample",
    "sample_policy",
    "apply_policy",
]

logger = logging.getLogger(__name__)

_SIMPLEX_TOL = 1e-9

# inclusive bounds of the bounded fields
_RANGES = {
    "p_aug": (0, 1),
    **dict.fromkeys(("alpha_sr", "alpha_ri", "alpha_rs", "alpha_rd"), (0, 0.5)),
    "eps_ori": (0, 0.5),
    "eps_aug": (0, 0.9),
}
_MIX = ("p_sr", "p_ri", "p_rs", "p_rd")


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

    def __post_init__(self):
        """The one check of the invariants: every construction path
        (from_dict, sample_policy, dataclasses.replace, ...) comes here, so
        a policy that exists is valid. Every violated invariant is named by
        field in the DomainError and listed in its `violations`. A field
        that is not a finite real number (NaN, infinities and booleans
        included) is a violation, and its other checks are then skipped."""
        violations = []
        num = {}
        for name in AugmentationPolicy.__dataclass_fields__:
            value = getattr(self, name)
            if is_real(value) or (name == "n_aug" and isinstance(value, bool)):
                num[name] = value  # a bool n_aug fails the integer check below
            else:
                violations.append(f"{name}: {value!r} is not a number")
        for name, (lo, hi) in _RANGES.items():
            if name in num and not lo <= num[name] <= hi:
                violations.append(f"{name}: {num[name]} not in [{lo}, {hi}]")
        violations += [f"{name}: {num[name]} is negative" for name in _MIX if num.get(name, 0) < 0]
        if all(name in num for name in _MIX):
            total = sum(num[name] for name in _MIX)
            if abs(total - 1.0) > _SIMPLEX_TOL:
                violations.append(f"p_sr+p_ri+p_rs+p_rd: sum = {total}, expected 1")
        if "n_aug" in num and not (is_int(self.n_aug) and self.n_aug >= 1):
            violations.append(f"n_aug: {self.n_aug} must be an integer >= 1")
        if violations:
            error = DomainError("invalid policy: " + "; ".join(violations))
            error.violations = violations
            raise error

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "AugmentationPolicy":
        return AugmentationPolicy(**{k: d[k] for k in AugmentationPolicy.__dataclass_fields__})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


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
        # every draw must be a valid policy; mix weights are renormalized, so > 0
        lo, hi = self.weight
        if not 0 < lo < hi < float("inf"):
            raise DomainError(f"weight: bounds [{lo}, {hi}] need 0 < lo < hi < inf")
        for name, (rlo, rhi) in _RANGES.items():
            lo, hi = getattr(self, name)
            if not rlo <= lo < hi <= rhi:
                raise DomainError(f"{name}: bounds [{lo}, {hi}] need {rlo} <= lo < hi <= {rhi}")
        choices = self.n_aug_choices
        if not choices or not all(is_int(n) and n >= 1 for n in choices) or len(set(choices)) < len(choices):
            raise DomainError(f"n_aug_choices: {list(choices)} need distinct integers >= 1")

    @staticmethod
    def from_dict(d: dict) -> "PolicySpace":
        """A value that is not a [lo, hi] number pair (or a list, for
        n_aug_choices) raises DomainError, as does a `d` that is not a dict."""
        if not isinstance(d, dict):
            raise DomainError(f"space: {d!r} is not an object of per-field bounds")
        kwargs = {}
        for key, val in d.items():
            try:
                if key == "n_aug_choices":
                    kwargs[key] = tuple(val)
                else:
                    lo, hi = val
                    if not (is_real(lo) and is_real(hi)):
                        raise TypeError("bounds must be finite numbers")
                    kwargs[key] = (float(lo), float(hi))
            except (TypeError, ValueError) as e:
                raise DomainError(f"space.{key}: cannot read {val!r} ({e})") from e
        return PolicySpace(**kwargs)

    def bounds(self, name: str) -> tuple[float, float]:
        """The bounds of a continuous policy field; the four mix weights share `weight`."""
        return self.weight if name in _MIX else getattr(self, name)

    def policy(self, values: dict) -> AugmentationPolicy:
        """The policy of per-field values: each continuous value clamped into
        its bounds, the mix renormalized onto the simplex, n_aug an int."""
        fields = dict(values, n_aug=int(values["n_aug"]))
        for name in fields.keys() - {"n_aug"}:
            lo, hi = self.bounds(name)
            fields[name] = min(max(fields[name], lo), hi)
        fields.update(zip(_MIX, _renormalize([fields[name] for name in _MIX])))
        return AugmentationPolicy(**fields)


def sample_policy(space: PolicySpace, rng: random.Random) -> AugmentationPolicy:
    """Uniform prior draw: the mix as four normalized Uniform(weight-bounds)
    draws first, then in field order the continuous dims uniform in bounds
    and n_aug uniform categorical."""
    values = dict(zip(_MIX, _renormalize([rng.uniform(*space.weight) for _ in _MIX])))
    for name in AugmentationPolicy.__dataclass_fields__:
        if name == "n_aug":
            values[name] = rng.choice(space.n_aug_choices)
        elif name not in _MIX:
            values[name] = rng.uniform(*space.bounds(name))
    return AugmentationPolicy(**values)


def _renormalize(weights: list[float]) -> list[float]:
    # push the float residue onto the largest component; the sum is then 1
    # or one rounding step off it
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[probs.index(max(probs))] += 1.0 - sum(probs)
    return probs


@dataclass(slots=True)
class AugmentedExample:
    """One soft-labeled training example. A slots dataclass, not a frozen
    one: nothing reassigns a field, and a frozen `__init__` would set each
    field through `object.__setattr__`. The soft labels `apply_policy`
    gives are read-only arrays, shared by every example of one (class,
    eps). An augmented copy's integer draws go through `augment._below`,
    which gives the values of `random.Random`'s `choice`, `randrange` and
    `randint`."""

    text: str
    soft_label: np.ndarray
    provenance: str  # "original" | "eda-augmented" (every copy, aeda ones too)
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
    nothing is selected and rng is not drawn from. Every copy has
    provenance "eda-augmented", whichever op made it. A source's eda copies
    come from one `eda_copies` call, with the draws of n_aug `eda` calls."""
    if not split:
        raise DomainError("empty dataset")
    if op not in ("eda", "aeda"):
        raise DomainError(f"unknown augmentation op {op!r}")

    labels: dict[tuple[int, float], np.ndarray] = {}

    def label(y: int, eps: float) -> np.ndarray:
        if (y, eps) not in labels:
            labels[y, eps] = smooth_label(y, n_class, eps)
            labels[y, eps].flags.writeable = False
        return labels[y, eps]

    out = [
        AugmentedExample(text, label(y, policy.eps_ori), "original", i)
        for i, (text, y) in enumerate(split)
    ]
    cum = cumulative_mix(policy)
    for i, (text, y) in enumerate(split):
        if not policy.p_aug or rng.random() >= policy.p_aug:
            continue
        tokens = tokenize(text)
        if not tokens:
            logger.warning("example %d tokenizes to empty; skipping its augmentation", i)
            continue
        if op == "eda":
            copies = eda_copies(tokens, lex.eligible(tokens), policy, cum, policy.n_aug, rng)
        else:
            copies = [aeda(tokens, rng) for _ in range(policy.n_aug)]
        soft = label(y, policy.eps_aug)
        out += [AugmentedExample(detokenize(c), soft, "eda-augmented", i) for c in copies]
    return out
