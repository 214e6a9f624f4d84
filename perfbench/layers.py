"""What the traced run wraps, and the per-layer metrics built from it.

Counts are per operation. Times are per call or per unit of work, so they
do not depend on how many operations fit in a run. A metric of a layer
that a workload does not call reads 0.
"""
from __future__ import annotations

from stats import percentile, tail
from tracing import Totals
from workloads import METHODS

MODULES = ("augment", "labels", "policy", "classifier", "search", "harness", "datasets", "textops", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _train_note(args, kwargs, result):
    history = result[1]
    best = max(range(len(history)), key=lambda k: (history[k].val_accuracy, -k)) + 1
    return len(_arg(args, kwargs, 0, "train_examples")), len(history), best


# (span name, module, attribute, note); tokenize/detokenize and the
# lexicon's lookups are too cheap to wrap and count in their caller
TRACED = [
    ("cli.main", "cli", "main", None),
    ("harness.run_experiment", "harness", "run_experiment", None),
    ("harness.run_method", "harness", "run_method", lambda a, k, r: _arg(a, k, 0, "method")),
    ("harness.render_report", "harness", "render_report", None),
    ("search.optimize", "search", "optimize", None),
    ("search.suggest", "search", "suggest", None),
    ("search.objective", "search", "objective", None),
    ("policy.apply_policy", "policy", "apply_policy", lambda a, k, r: len(r)),
    ("augment.eda", "augment", "eda", None),
    ("augment.aeda", "augment", "aeda", None),
    ("labels.smooth_label", "labels", "smooth_label", None),
    ("classifier.train", "classifier", "train", _train_note),
    ("classifier.featurize", "classifier", "featurize", lambda a, k, r: _arg(a, k, 0, "text")),
    ("classifier.evaluate", "classifier", "evaluate", lambda a, k, r: len(_arg(a, k, 1, "data"))),
    ("classifier.save_model", "classifier", "save_model", None),
    ("classifier.load_model", "classifier", "load_model", None),
    ("datasets.load_dataset", "datasets", "load_dataset", None),
    ("datasets.make_synthetic_reviews", "datasets", "make_synthetic_reviews", None),
    ("datasets.subsample", "datasets", "subsample", None),
    ("textops.load_bundled_lexicon", "textops", "load_bundled_lexicon", None),
]
KEEP_DURATIONS = ("search.objective",)


def key_reuse(texts) -> float:
    """1 - distinct keys / keys over the unigram and bigram keys that
    `featurize` hashes for `texts`."""
    seen: set[str] = set()
    total = 0
    for text in texts:
        tokens = text.lower().split()
        keys = tokens + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]
        total += len(keys)
        seen.update(keys)
    return 1.0 - len(seen) / total if total else 0.0


def layer_metrics(setup: Totals, ops: Totals, overhead_frac: float) -> dict[str, float]:
    n_ops = max(ops.roots, 1)

    def calls(name):
        return ops.calls[name] / n_ops

    def per_call(name, scale):
        return scale * ops.time[name] / ops.calls[name] if ops.calls[name] else 0.0

    def per_unit(total, units, scale=1e6):
        return scale * total / units if units else 0.0

    def ms_per_call(name):
        # set-up work where the workload does it in set-up, else in operations
        for totals in (setup, ops):
            if totals.calls[name]:
                return 1e3 * totals.time[name] / totals.calls[name]
        return 0.0

    def notes(name):
        return [note for root in ops.notes[name] for note, _ in root]

    trainings = notes("classifier.train")
    example_epochs = sum(k * epochs for k, epochs, _ in trainings)
    epochs = sum(epochs for _, epochs, _ in trainings)
    objective = ops.durations["search.objective"]
    pct, tail_s, n_objective = tail(objective) if objective else (0, 0.0, 0)
    reuse = [key_reuse(note for note, _ in root) for root in ops.notes["classifier.featurize"]]
    method_time = {m: 0.0 for m in METHODS}
    for root in ops.notes["harness.run_method"]:
        for method, seconds in root:
            method_time[method] = method_time.get(method, 0.0) + seconds
    by_module = ops.self_by_module()

    out = {
        "classifier.train.calls": calls("classifier.train"),
        "classifier.train.example_epochs": example_epochs / n_ops,
        "classifier.train.self_us_per_example_epoch": per_unit(ops.self_time["classifier.train"], example_epochs),
        "classifier.train.useful_epoch_ratio": per_unit(sum(b for _, _, b in trainings), epochs, 1.0),
        "classifier.featurize.calls": calls("classifier.featurize"),
        "classifier.featurize.us_per_call": per_call("classifier.featurize", 1e6),
        "classifier.featurize.key_reuse_ratio": sum(reuse) / len(reuse) if reuse else 0.0,
        "classifier.evaluate.us_per_example": per_unit(
            ops.self_time["classifier.evaluate"], sum(notes("classifier.evaluate"))
        ),
        "classifier.load_model.ms": ms_per_call("classifier.load_model"),
        "classifier.save_model.ms": ms_per_call("classifier.save_model"),
        "augment.eda.calls": calls("augment.eda"),
        "augment.eda.us_per_call": per_call("augment.eda", 1e6),
        "augment.aeda.calls": calls("augment.aeda"),
        "augment.aeda.us_per_call": per_call("augment.aeda", 1e6),
        "policy.apply_policy.calls": calls("policy.apply_policy"),
        "policy.apply_policy.self_us_per_example": per_unit(
            ops.self_time["policy.apply_policy"], sum(notes("policy.apply_policy"))
        ),
        "labels.smooth_label.calls": calls("labels.smooth_label"),
        "labels.smooth_label.us_per_call": per_call("labels.smooth_label", 1e6),
        "search.suggest.calls": calls("search.suggest"),
        "search.suggest.ms_per_call": per_call("search.suggest", 1e3),
        "search.objective.calls": calls("search.objective"),
        "search.objective.p50_s": percentile(objective, 50) if objective else 0.0,
        "search.objective.tail_s": tail_s,
        "search.objective.tail_pct": pct,
        "search.objective.samples": n_objective,
        "search.trainings_per_trial": per_unit(
            ops.parent_calls[("search.objective", "classifier.train")], ops.calls["search.objective"], 1.0
        ),
        **{f"harness.run_method.{m}_s": method_time[m] / n_ops for m in METHODS},
        "textops.load_bundled_lexicon.ms": ms_per_call("textops.load_bundled_lexicon"),
        "datasets.make_synthetic_reviews.ms": ms_per_call("datasets.make_synthetic_reviews"),
        "datasets.subsample.ms": ms_per_call("datasets.subsample"),
        "datasets.load_dataset.ms": ms_per_call("datasets.load_dataset"),
        **{f"{m}.self_share": per_unit(by_module[m], ops.root_time, 1.0) for m in MODULES},
        "trace.overhead_frac": overhead_frac,
    }
    # quality of the workload's outputs; each workload overwrites its own
    out.update({
        "harness.acc_ours_pct": 0.0,
        "harness.acc_gain_pp": 0.0,
        "harness.failed_cells": 0.0,
        "classifier.evaluate.acc_pct": 0.0,
    })
    return out
