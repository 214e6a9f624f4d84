"""Experiment harness: per-method runs, multi-seed sweeps, and reporting.

For each seed the harness redraws a stratified low-resource subsample,
carves a validation holdout out of it, builds every requested method's
training set, trains them in one lockstep train_runs call, and scores each
model on the untouched test split, indexed once per experiment. Cells are
aggregated as mean and sample (n-1) standard deviation over seeds, in
percent. A run makes one (dataset, n_train) column, rendered as one
`mean±std` cell per method: the best mean gets a trailing `*`, cells below
the baseline row a `!`.
"""
from __future__ import annotations

import json
import math
import random
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .classifier import TrainConfig, _accuracy, _atomic_write, _index, _labels, train_runs
from .datasets import Example, LabeledDataset, load_dataset, make_synthetic_reviews, make_val_split, subsample
from .errors import DataError, DomainError, SoftAugError, TrainingError, is_int, is_real, require_counts
from .policy import AugmentationPolicy, AugmentedExample, PolicySpace, apply_policy
from .search import _SEED_RANGE, SearchConfig, optimize
from .textops import SynonymLexicon, load_lexicon

__all__ = [
    "METHODS",
    "FixedMethodParams",
    "ExperimentConfig",
    "EvalReport",
    "ReportCell",
    "run_method",
    "search_policy",
    "seed_splits",
    "run_experiment",
    "render_report",
]

METHODS = ("baseline", "eda", "aeda", "softeda_fixed", "ours", "ours_no_ls")
_SEARCHED = ("ours", "ours_no_ls")


@dataclass(frozen=True)
class FixedMethodParams:
    """Hyperparameters of the non-searched methods (canonical EDA/softEDA
    operating point; overridable in the experiment config)."""

    alpha: float = 0.1
    n_aug: int = 4
    eps_aug: float = 0.1

    def __post_init__(self):
        # every fixed method, baseline included, runs as a policy with these
        # values, so a value outside the policy bounds would fail every cell
        try:
            _fixed_policy("softeda_fixed", self)
        except DomainError as e:
            raise DomainError("; ".join(f"fixed.{v}" for v in e.violations)) from None


@dataclass
class ExperimentConfig:
    dataset_path: str | None = None  # None -> bundled synthetic surrogate
    dataset_format: str | None = None
    lexicon_path: str | None = None  # None -> bundled lexicon
    n_train: int = 100
    methods: tuple[str, ...] = METHODS
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    val_fraction: float = 0.2
    fixed: FixedMethodParams = field(default_factory=FixedMethodParams)
    search: SearchConfig = field(default_factory=SearchConfig)
    space: PolicySpace = field(default_factory=PolicySpace)
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str | None = None

    def __post_init__(self):
        require_counts(self, "n_train")
        if not all(is_int(s) for s in self.seeds):
            raise DomainError(f"seeds: {list(self.seeds)} must be integers")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise DomainError("seeds must be non-empty and distinct")
        if not (is_real(self.val_fraction) and 0 < self.val_fraction < 1):
            raise DomainError(f"val_fraction: {self.val_fraction!r} must be a number in (0, 1)")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown or not self.methods or len(set(self.methods)) != len(self.methods):
            raise DomainError(
                f"methods: {list(self.methods)} must be a non-empty list of distinct names from {list(METHODS)}"
            )
        for name in ("dataset_path", "dataset_format", "lexicon_path", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, (str, type(None))):
                raise DomainError(f"{name}: {value!r} must be a string or null")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """A `d` that is not a dict, `methods` or `seeds` that is not a
        list, or `fixed`, `search` or `train` that is not a dict raises
        DomainError naming it."""
        if not isinstance(d, dict):
            raise DomainError(f"config: {d!r} is not an object of experiment fields")
        kwargs = dict(d)
        for key in ("methods", "seeds"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise DomainError(f"{key}: {kwargs[key]!r} must be a list")
                kwargs[key] = tuple(kwargs[key])
        for key in ("fixed", "search", "train"):
            if not isinstance(kwargs.get(key, {}), dict):
                raise DomainError(f"{key}: {kwargs[key]!r} is not an object of {key} fields")
        if "fixed" in kwargs:
            kwargs["fixed"] = FixedMethodParams(**kwargs["fixed"])
        if "search" in kwargs:
            overridden = [k for k in ("seed", "fix_smoothing_to_zero", "train") if k in kwargs["search"]]
            if overridden:
                raise DomainError(
                    f"search.{overridden[0]}: the harness sets the search seed and smoothing "
                    'per (method, seed), and training comes from the top-level "train"'
                )
            kwargs["search"] = SearchConfig(**kwargs["search"])
        if "space" in kwargs:
            kwargs["space"] = PolicySpace.from_dict(kwargs["space"])
        if "train" in kwargs:
            kwargs["train"] = TrainConfig(**kwargs["train"])
        return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class ReportCell:
    method: str
    dataset: str
    n_train: int
    mean: float  # percent
    std: float  # sample (n-1) std, percent
    per_seed: tuple[float, ...]
    failed_seeds: tuple[int, ...] = ()


@dataclass
class EvalReport:
    cells: list[ReportCell]

    @property
    def incomplete(self) -> bool:
        """Whether some (method, seed) run failed and is left out of its cell."""
        return any(c.failed_seeds for c in self.cells)

    def to_dict(self) -> dict:
        return {
            "std_kind": "sample",  # n-1
            "incomplete": self.incomplete,
            "cells": [asdict(c) for c in self.cells],
        }


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample (n-1) std: both NaN for no values, std 0 for one."""
    if not values:
        return float("nan"), float("nan")
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def _fixed_policy(method: str, fixed: FixedMethodParams) -> AugmentationPolicy:
    """A non-searched method as a policy: a uniform mix at magnitude alpha.
    baseline selects no example; eda, aeda and softeda_fixed select every
    one, and only softeda_fixed smooths the copies' labels."""
    a = fixed.alpha
    return AugmentationPolicy(
        p_aug=0.0 if method == "baseline" else 1.0,
        p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
        alpha_sr=a, alpha_ri=a, alpha_rs=a, alpha_rd=a,
        n_aug=fixed.n_aug, eps_ori=0.0,
        eps_aug=fixed.eps_aug if method == "softeda_fixed" else 0.0,
    )


def run_method(
    method: str,
    train_split,
    val_split,
    n_class: int,
    lex: SynonymLexicon,
    cfg: ExperimentConfig,
    seed: int,
    artifacts_dir: Path | None = None,
) -> tuple[list[AugmentedExample], random.Random]:
    """One (method, seed) cell's training set: the train split augmented
    with the method's policy (fixed, or for ours/ours_no_ls searched by
    search_policy, which writes its files into `artifacts_dir` under the
    suffix `_<method>_seed<seed>`), and the random.Random that then
    shuffles its training."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    rng = random.Random(seed)

    if method in _SEARCHED:
        policy, _ = search_policy(train_split, val_split, n_class, lex, cfg, rng.randrange(_SEED_RANGE),
                                  method == "ours", artifacts_dir, f"_{method}_seed{seed}")
    else:
        policy = _fixed_policy(method, cfg.fixed)

    op = "aeda" if method == "aeda" else "eda"
    return apply_policy(train_split, n_class, policy, lex, rng, op=op), rng


def search_policy(train_split, val_split, n_class: int, lex: SynonymLexicon, cfg: ExperimentConfig,
                  seed: int, smoothing: bool, out_dir: Path | None = None, suffix: str = ""):
    """search.optimize's (best policy, trial records) over cfg's space and
    settings. With `out_dir`, it removes `best_policy<suffix>.json`, streams
    `trials<suffix>.jsonl`, then writes the best policy atomically: a search
    that stops leaves its partial log and no policy from an earlier run."""
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"best_policy{suffix}.json").unlink(missing_ok=True)
    with open(out_dir / f"trials{suffix}.jsonl", "w", encoding="utf-8") if out_dir else nullcontext() as log:
        best, history = optimize(train_split, val_split, n_class, cfg.space, lex, cfg.search, cfg.train,
                                 seed, log, smoothing=smoothing)
    if out_dir:
        with _atomic_write(out_dir / f"best_policy{suffix}.json") as f:
            f.write((best.to_json() + "\n").encode("utf-8"))
    return best, history


def seed_splits(
    data: LabeledDataset, cfg: ExperimentConfig, seed: int
) -> tuple[list[Example], list[Example]]:
    """The (train, val) splits of `seed`: a stratified subsample of n_train
    train examples, then a stratified val_fraction holdout carved out of it."""
    sub = subsample(data, cfg.n_train, seed)
    return make_val_split(sub.split("train"), cfg.val_fraction, seed)


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Full multi-seed sweep over cfg.methods. Per seed: subsample the
    train split to n_train, carve the validation holdout, build each
    method's training set, train the sets in one train_runs call, and score
    each model on the test split. A cell whose set building or training raises
    a SoftAugError is recorded and excluded rather than aborting the sweep
    (any other error propagates); with an output directory, its traceback
    goes to failure_<method>_seed<seed>.txt. The run first removes that file
    for every (method, seed) it runs, and for a searched one also its trials
    and best_policy files, report.json and report.txt, and no other file. A
    dataset with fewer than two classes raises DataError before any cell runs."""
    data = (make_synthetic_reviews() if cfg.dataset_path is None
            else load_dataset(cfg.dataset_path, cfg.dataset_format))
    if data.n_class < 2:
        raise DataError(f"dataset {data.name!r} has {data.n_class} class; a comparison needs at least 2")
    lex = load_lexicon(cfg.lexicon_path)
    test_split = data.split("test")
    # the same split for every seed: indexed once, then scored by each model
    test_rows = (*_index([text for text, _ in test_split]), _labels(test_split, data.n_class))
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        owned = [f"failure_{m}_seed{s}.txt" for m in cfg.methods for s in cfg.seeds]
        owned += [f"{stem}_{m}_seed{s}{ext}" for m in cfg.methods if m in _SEARCHED for s in cfg.seeds
                  for stem, ext in (("trials", ".jsonl"), ("best_policy", ".json"))]
        for name in ["report.json", "report.txt", *owned]:
            (out_dir / name).unlink(missing_ok=True)

    scores: dict[str, list[float]] = {m: [] for m in cfg.methods}
    failures: dict[str, list[int]] = {m: [] for m in cfg.methods}

    def fail(method: str, seed: int):  # in an except block: degrade, don't abort the sweep
        failures[method].append(seed)
        if out_dir:
            with _atomic_write(out_dir / f"failure_{method}_seed{seed}.txt") as f:
                f.write(traceback.format_exc().encode("utf-8"))

    for seed in cfg.seeds:
        tr, val = seed_splits(data, cfg, seed)
        sets = {}
        for method in cfg.methods:
            try:
                sets[method] = run_method(method, tr, val, data.n_class, lex, cfg, seed, out_dir)
            except SoftAugError:
                fail(method, seed)
        runs, rngs = [s for s, _ in sets.values()], [r for _, r in sets.values()]
        fits = train_runs(runs, val, data.n_class, cfg.train, rngs) if runs else []
        for method, fit in zip(sets, fits):
            try:
                if isinstance(fit, TrainingError):
                    raise fit
                scores[method].append(_accuracy(fit[0], *test_rows) * 100.0)
            except SoftAugError:
                fail(method, seed)

    report = EvalReport([
        ReportCell(m, data.name, cfg.n_train, *_mean_std(scores[m]), tuple(scores[m]),
                   tuple(failures[m]))
        for m in cfg.methods
    ])

    if out_dir:
        with _atomic_write(out_dir / "report.json") as f:
            f.write((json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8"))
        with _atomic_write(out_dir / "report.txt") as f:
            f.write(render_report(report).encode("utf-8"))
    return report


def format_cell(mean: float, std: float) -> str:
    return f"{mean:.2f}±{std:.2f}"


def render_report(report: EvalReport) -> str:
    """Plain-text table of the one (dataset, n_train) column a run makes,
    one row per method. The best mean is starred; cells whose mean falls
    below the baseline row carry a trailing `!`. A report with no cells, or
    with cells from more than one column, raises DomainError."""
    columns = {(c.dataset, c.n_train) for c in report.cells}
    if len(columns) != 1:
        raise DomainError(f"a report renders one (dataset, n_train) column, not {sorted(columns)}")
    [(dataset, n_train)] = columns
    by_method = {c.method: c for c in report.cells}
    best = max((c.mean for c in report.cells if c.per_seed), default=None)
    base = by_method.get("baseline")

    def cell_text(c: ReportCell) -> str:
        if not c.per_seed:
            return "failed"
        text = format_cell(c.mean, c.std)
        if c.mean == best:
            text += " *"
        if base is not None and base.per_seed and c.mean < base.mean:
            text += " !"
        return text

    rows = [["method", f"{dataset} (n={n_train})"]] + [[m, cell_text(c)] for m, c in by_method.items()]
    widths = [max(len(row[i]) for row in rows) for i in (0, 1)]
    rows.insert(1, ["-" * w for w in widths])
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in rows]
    lines += ["", "cells: mean±std over seeds (sample std); * best mean in column; ! below baseline"]
    if report.incomplete:
        lines.append("WARNING: some (method, seed) cells failed and were excluded")
    return "\n".join(lines) + "\n"
