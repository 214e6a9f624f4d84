"""Experiment harness: per-method runs, multi-seed sweeps, and reporting.

For each seed the harness redraws a stratified low-resource subsample,
carves a validation holdout out of it, runs every requested method, and
evaluates on the untouched test split. Cells are aggregated as mean and
sample (n-1) standard deviation over seeds, in percent, and rendered as a
methods-by-datasets grid with `mean±std` cells: the best mean per column
gets a trailing `*`, cells below the baseline row a trailing `!`.
"""
from __future__ import annotations

import json
import math
import os
import random
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from .classifier import TrainConfig, evaluate, train
from .datasets import LabeledDataset, load_dataset, make_synthetic_reviews, make_val_split, subsample
from .errors import DomainError
from .policy import AugmentationPolicy, PolicySpace, apply_policy, validate_policy
from .search import _SEED_RANGE, SearchConfig, optimize
from .textops import SynonymLexicon, load_bundled_lexicon, load_lexicon

__all__ = [
    "METHODS",
    "FixedMethodParams",
    "ExperimentConfig",
    "EvalReport",
    "ReportCell",
    "run_method",
    "run_experiment",
    "render_report",
]

METHODS = ("baseline", "eda", "aeda", "softeda_fixed", "ours", "ours_no_ls")


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
        violations = validate_policy(_fixed_policy("softeda_fixed", self))
        if violations:
            raise DomainError("; ".join(f"fixed.{v}" for v in violations))


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
        if not (isinstance(self.n_train, int) and self.n_train >= 1):
            raise DomainError(f"n_train: {self.n_train!r} must be an integer >= 1")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise DomainError("seeds must be non-empty and distinct")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise DomainError(f"unknown methods: {unknown}")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        kwargs = dict(d)
        if "fixed" in kwargs:
            kwargs["fixed"] = FixedMethodParams(**kwargs["fixed"])
        if "search" in kwargs:
            search = dict(kwargs["search"])
            if "train" in search:
                search["train"] = TrainConfig(**search["train"])
            kwargs["search"] = SearchConfig(**search)
        if "space" in kwargs:
            kwargs["space"] = PolicySpace.from_dict(kwargs["space"])
        if "train" in kwargs:
            kwargs["train"] = TrainConfig(**kwargs["train"])
        for key in ("methods", "seeds"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return ExperimentConfig(**kwargs)

    @staticmethod
    def from_json_file(path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as f:
            return ExperimentConfig.from_dict(json.load(f))


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
    std_kind: str = "sample"  # n-1
    incomplete: bool = False

    def to_dict(self) -> dict:
        return {
            "std_kind": self.std_kind,
            "incomplete": self.incomplete,
            "cells": [
                {
                    "method": c.method,
                    "dataset": c.dataset,
                    "n_train": c.n_train,
                    "mean": c.mean,
                    "std": c.std,
                    "per_seed": list(c.per_seed),
                    "failed_seeds": list(c.failed_seeds),
                }
                for c in self.cells
            ],
        }


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


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
    test_split,
    n_class: int,
    lex: SynonymLexicon,
    cfg: ExperimentConfig,
    seed: int,
    artifacts_dir: Path | None = None,
) -> float:
    """One (method, seed) cell: build the training set with the method's
    policy (searched for ours/ours_no_ls, fixed otherwise), train, and
    return test accuracy in [0, 1]."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    rng = random.Random(seed)

    if method in ("ours", "ours_no_ls"):
        search_cfg = replace(
            cfg.search,
            seed=rng.randrange(_SEED_RANGE),
            fix_smoothing_to_zero=(method == "ours_no_ls"),
            train=cfg.train,
        )
        log_path = artifacts_dir / f"trials_{method}_seed{seed}.jsonl" if artifacts_dir else None
        with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log:
            policy, _ = optimize(train_split, val_split, n_class, cfg.space, lex, search_cfg, log)
        if artifacts_dir:
            _atomic_write(
                artifacts_dir / f"best_policy_{method}_seed{seed}.json",
                policy.to_json() + "\n",
            )
    else:
        policy = _fixed_policy(method, cfg.fixed)

    op = "aeda" if method == "aeda" else "eda"
    examples = apply_policy(train_split, n_class, policy, lex, rng, op=op)
    model, _ = train(examples, val_split, n_class, cfg.train, rng)
    return evaluate(model, test_split)


def _load_experiment_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    if cfg.dataset_path is None:
        return make_synthetic_reviews()
    return load_dataset(cfg.dataset_path, cfg.dataset_format)


def _load_experiment_lexicon(cfg: ExperimentConfig) -> SynonymLexicon:
    if cfg.lexicon_path is None:
        return load_bundled_lexicon()
    return load_lexicon(cfg.lexicon_path)


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Full multi-seed sweep over cfg.methods. Per seed: subsample the
    train split to n_train, carve the validation holdout, run each
    method, score on the test split. A failing (method, seed) cell is
    recorded and excluded rather than aborting the sweep; with an output
    directory, its traceback goes to failure_<method>_seed<seed>.txt."""
    data = _load_experiment_dataset(cfg)
    lex = _load_experiment_lexicon(cfg)
    test_split = data.split("test")
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    scores: dict[str, list[float]] = {m: [] for m in cfg.methods}
    failures: dict[str, list[int]] = {m: [] for m in cfg.methods}
    for seed in cfg.seeds:
        sub = subsample(data, cfg.n_train, seed)
        tr, val = make_val_split(sub.split("train"), cfg.val_fraction, seed)
        for method in cfg.methods:
            try:
                acc = run_method(
                    method, tr, val, test_split, data.n_class, lex, cfg, seed, out_dir
                )
            except Exception:  # degrade, don't abort the sweep
                failures[method].append(seed)
                if out_dir:
                    _atomic_write(
                        out_dir / f"failure_{method}_seed{seed}.txt", traceback.format_exc()
                    )
                continue
            scores[method].append(acc * 100.0)

    cells = []
    for method in cfg.methods:
        per_seed = scores[method]
        mean, std = _mean_std(per_seed) if per_seed else (float("nan"), float("nan"))
        cells.append(
            ReportCell(
                method=method,
                dataset=data.name,
                n_train=cfg.n_train,
                mean=mean,
                std=std,
                per_seed=tuple(per_seed),
                failed_seeds=tuple(failures[method]),
            )
        )
    report = EvalReport(cells=cells, incomplete=any(failures[m] for m in cfg.methods))

    if out_dir:
        _atomic_write(
            out_dir / "report.json",
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        _atomic_write(out_dir / "report.txt", render_report(report))
    return report


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def format_cell(mean: float, std: float) -> str:
    return f"{mean:.2f}±{std:.2f}"


def render_report(report: EvalReport) -> str:
    """Plain-text grid, methods as rows and (dataset, n_train) as columns.
    Best mean per column is starred; cells whose mean falls below the
    baseline row carry a trailing `!`."""
    columns = sorted({(c.dataset, c.n_train) for c in report.cells})
    methods = list(dict.fromkeys(c.method for c in report.cells))
    by_key = {(c.method, c.dataset, c.n_train): c for c in report.cells}

    def cell_text(method, col) -> str:
        c = by_key.get((method, *col))
        if c is None or not c.per_seed:
            return "failed" if c is not None else "-"
        text = format_cell(c.mean, c.std)
        best = max(
            x.mean for x in report.cells
            if (x.dataset, x.n_train) == col and x.per_seed
        )
        if c.mean == best:
            text += " *"
        base = by_key.get(("baseline", *col))
        if base is not None and base.per_seed and c.mean < base.mean:
            text += " !"
        return text

    headers = ["method"] + [f"{d} (n={n})" for d, n in columns]
    rows = [[m] + [cell_text(m, col) for col in columns] for m in methods]
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    lines.append("")
    lines.append("cells: mean±std over seeds (sample std); * best mean in column; ! below baseline")
    if report.incomplete:
        lines.append("WARNING: some (method, seed) cells failed and were excluded")
    return "\n".join(lines) + "\n"
