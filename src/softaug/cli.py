"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data/ingestion error, 3
training error.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .classifier import evaluate, load_model, save_model, train
from .datasets import load_dataset, make_val_split
from .errors import DataError, DomainError, TrainingError
from .harness import ExperimentConfig, load_experiment_lexicon, render_report, run_experiment, seed_splits
from .policy import AugmentationPolicy, apply_policy, write_augmented_jsonl
from .search import SearchConfig, optimize


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softaug", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="dataset file (csv/tsv/jsonl)")
        p.add_argument("--format", choices=["csv", "tsv", "jsonl"], default=None)

    p = sub.add_parser("augment", help="apply a policy file, write augmented JSONL")
    add_common(p)
    p.add_argument("--lexicon", default=None, help="TSV lexicon (default: bundled)")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("search", help="optimize the augmentation policy")
    add_common(p)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-label-smoothing", action="store_true")
    p.add_argument("--output", required=True, help="output directory")

    p = sub.add_parser("train", help="one training run with a policy")
    add_common(p)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--policy", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True, help="model checkpoint path")

    p = sub.add_parser("eval", help="print test accuracy of a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "tsv", "jsonl"], default=None)

    p = sub.add_parser("compare", help="full multi-seed experiment from a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    return parser


def _read_json(path, what: str, parse):
    """parse() of the JSON in the file at `path`. A file that cannot be
    opened, is not UTF-8 or not JSON, or lacks a key or holds a value of
    the wrong type raises DataError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(json.load(f))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise DataError(f"cannot read {what} {path}: {e}")


def _read_policy(path) -> AugmentationPolicy:
    return _read_json(path, "policy file", AugmentationPolicy.from_dict)


def _cmd_augment(args) -> int:
    data = load_dataset(args.input, args.format)
    policy = _read_policy(args.policy)
    examples = apply_policy(
        data.split("train"), data.n_class, policy, load_experiment_lexicon(args.lexicon),
        random.Random(args.seed),
    )
    write_augmented_jsonl(args.output, examples)
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


def _cmd_search(args) -> int:
    cfg = ExperimentConfig(
        n_train=args.n_train,
        search=SearchConfig(n_trials=args.trials, n_startup=min(5, max(1, args.trials - 1))),
    )
    data = load_dataset(args.input, args.format)
    lex = load_experiment_lexicon(args.lexicon)
    tr, val = seed_splits(data, cfg, args.seed)
    # every input is read before the output directory is touched
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trials.jsonl", "w", encoding="utf-8") as log:
        best, history = optimize(
            tr, val, data.n_class, cfg.space, lex, cfg.search, cfg.train, args.seed, log,
            smoothing=not args.no_label_smoothing,
        )
    (out / "best_policy.json").write_text(best.to_json() + "\n", encoding="utf-8")
    best_score = max(r.score for r in history)
    print(f"best policy (val accuracy {best_score:.4f}) -> {out / 'best_policy.json'}")
    return 0


def _cmd_train(args) -> int:
    data = load_dataset(args.input, args.format)
    policy = _read_policy(args.policy)
    cfg = ExperimentConfig()
    rng = random.Random(args.seed)
    if "val" in data.splits:
        tr, val = data.split("train"), data.split("val")
    else:
        tr, val = make_val_split(data.split("train"), cfg.val_fraction, args.seed)
    examples = apply_policy(tr, data.n_class, policy, load_experiment_lexicon(args.lexicon), rng)
    model, history = train(examples, val, data.n_class, cfg.train, rng)
    model.labels = data.label_names
    save_model(model, args.output)
    print(
        f"trained {len(history)} epochs, best val accuracy "
        f"{max(h.val_accuracy for h in history):.4f} -> {args.output}"
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_dataset(args.input, args.format, model.labels)
    print(f"{evaluate(model, data.splits.get('test') or data.split('train')):.4f}")
    return 0


def _cmd_compare(args) -> int:
    report = run_experiment(_read_json(args.config, "config", ExperimentConfig.from_dict))
    print(render_report(report), end="")
    return 0


_COMMANDS = {
    "augment": _cmd_augment,
    "search": _cmd_search,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (DataError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
