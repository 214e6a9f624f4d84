"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload is closed-loop with one client: the next operation starts
when the previous one and its checks are done. Inputs are made from the
workload seed alone. The package is called through module attributes
(`classifier.evaluate`, not a bound name), so a traced run sees the calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import statistics
from pathlib import Path

import numpy as np

from softaug import augment, classifier, cli, datasets, harness, labels, policy, textops

from corpus import ZipfCorpus

METHODS = list(harness.METHODS)

# cleared by each set-up, so set-up pays the lexicon load a fresh process pays
_clear_lexicon_cache = getattr(textops.load_bundled_lexicon, "cache_clear", lambda: None)


def derive(*parts) -> int:
    """A 32-bit seed determined by `parts`."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:4], "big")


class Compare:
    """`softaug compare` through `cli.main` on the bundled synthetic reviews.

    The training split and the experiment's seeds are fixed, so every run
    trains the same models on the same data; the workload seed draws the
    600-sentence test split they are scored on. Varying the experiment
    seeds instead changes the searched policies, and so the training work,
    by up to 3x between seeds.
    """

    name = "compare"
    config = {
        "n_train": 100,
        "methods": METHODS,
        "seeds": [0],
        "search": {"n_trials": 4, "n_startup": 2},
    }

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.data = work / "reviews.jsonl"
        self.config_path = work / "config.json"
        self.out = work / "run"
        self.digests: list[str] = []
        self.failed_cells: list[int] = []
        self.report = None

    def setup(self):
        _clear_lexicon_cache()
        textops.load_bundled_lexicon()
        bundled = datasets.make_synthetic_reviews()
        test = datasets.make_synthetic_reviews(seed=derive("compare", self.seed)).split("test")
        with open(self.data, "w", encoding="utf-8") as f:
            for split, rows in (("train", bundled.split("train")), ("test", test)):
                for text, y in rows:
                    f.write(json.dumps({"text": text, "label": bundled.label_names[y], "split": split}) + "\n")
        Path(f"{self.data}.labels.json").write_text(json.dumps(bundled.label_names), encoding="utf-8")
        config = dict(self.config, dataset_path=str(self.data), output_dir=str(self.out))
        self.config_path.write_text(json.dumps(config), encoding="utf-8")

    def prepare(self, i: int):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):
            self.code = cli.main(["compare", "--config", str(self.config_path)])

    def check(self, i: int) -> bool:
        """Exit code 0, a complete report with every cell, and a report
        byte-identical to the first operation's."""
        if self.code != 0:
            return False
        raw = (self.out / "report.json").read_bytes()
        self.digests.append(hashlib.sha256(raw).hexdigest())
        report = json.loads(raw)
        cells = {c["method"]: c for c in report["cells"]}
        self.failed_cells.append(sum(len(c["failed_seeds"]) for c in report["cells"]))
        self.report = report
        return (
            not report["incomplete"]
            and len(report["cells"]) == len(METHODS)
            and sorted(cells) == sorted(METHODS)
            and all(len(c["per_seed"]) == len(self.config["seeds"]) for c in cells.values())
            and self.failed_cells[-1] == 0
            and self.digests[-1] == self.digests[0]
        )

    def layer_values(self) -> dict:
        if self.report is None:
            return {}
        mean = {c["method"]: c["mean"] for c in self.report["cells"]}
        return {
            "harness.acc_ours_pct": mean["ours"],
            "harness.acc_gain_pp": mean["ours"] - mean["baseline"],
            "harness.failed_cells": statistics.mean(self.failed_cells),
        }


class Augment:
    """`apply_policy` at n_aug=8 with a uniform mix, plus 8 `aeda` copies of
    every sentence, over a 2000-sentence train split. No training."""

    name = "augment"
    policy = dict(
        p_aug=1.0, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
        alpha_sr=0.1, alpha_ri=0.1, alpha_rs=0.1, alpha_rd=0.1,
        n_aug=8, eps_ori=0.1, eps_aug=0.3,
    )
    aeda_copies = 8

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        _clear_lexicon_cache()
        self.lex = textops.load_bundled_lexicon()
        data = datasets.make_synthetic_reviews(seed=derive("augment", self.seed))
        self.split = data.split("train")
        self.n_class = data.n_class
        self.policy_obj = policy.AugmentationPolicy(**self.policy)

    def prepare(self, i: int):
        pass

    def op(self, i: int):
        rng = random.Random(derive("augment", self.seed, i))
        self.examples = policy.apply_policy(self.split, self.n_class, self.policy_obj, self.lex, rng)
        copies = []
        for text, _ in self.split:
            tokens = textops.tokenize(text)
            for _ in range(self.aeda_copies):
                copies.append(textops.detokenize(augment.aeda(tokens, rng)))
        self.copies = copies

    def check(self, i: int) -> bool:
        return self._count_law() and self._labels() and self._aeda_strips()

    def _count_law(self) -> bool:
        """Originals in order, then n_aug copies per selected source, grouped
        by ascending source; with p_aug = 1 every non-empty source is selected."""
        n, n_aug = len(self.split), self.policy["n_aug"]
        head, rest = self.examples[:n], self.examples[n:]
        if any(
            e.provenance != "original" or e.source_index != k or e.text != self.split[k][0]
            for k, e in enumerate(head)
        ):
            return False
        if any(e.provenance != "eda-augmented" for e in rest):
            return False
        groups = [(src, len(list(g))) for src, g in itertools.groupby(e.source_index for e in rest)]
        sources = [src for src, _ in groups]
        selected = sum(1 for text, _ in self.split if textops.tokenize(text))
        return (
            sources == sorted(set(sources))
            and all(size == n_aug for _, size in groups)
            and len(groups) == selected
            and len(self.examples) == n + n_aug * selected
        )

    def _labels(self) -> bool:
        """Every label is a soft label smoothed by eps_ori (originals) or
        eps_aug (copies) around its source's class."""
        if not all(labels.is_soft_label(e.soft_label) for e in self.examples):
            return False
        expected = np.empty((2, self.n_class, self.n_class))
        for p, eps in enumerate((self.policy["eps_ori"], self.policy["eps_aug"])):
            expected[p] = np.full((self.n_class, self.n_class), eps / self.n_class)
            expected[p][np.diag_indices(self.n_class)] += 1.0 - eps
        got = np.array([e.soft_label for e in self.examples])
        kind = np.array([e.provenance != "original" for e in self.examples], dtype=int)
        ys = np.array([self.split[e.source_index][1] for e in self.examples])
        return got.shape == (len(self.examples), self.n_class) and bool(
            np.abs(got - expected[kind, ys]).max() <= 1e-12
        )

    def _aeda_strips(self) -> bool:
        """Removing the inserted marks from each copy gives its source back."""
        if len(self.copies) != self.aeda_copies * len(self.split):
            return False
        marks = set(augment.PUNCTUATION_MARKS)
        for k, (text, _) in enumerate(self.split):
            source = textops.tokenize(text)
            for copy in self.copies[k * self.aeda_copies : (k + 1) * self.aeda_copies]:
                tokens = textops.tokenize(copy)
                j = 0
                for tok in tokens:
                    if j < len(source) and tok == source[j]:
                        j += 1
                    elif tok not in marks:
                        return False
                if j != len(source) or len(tokens) == len(source):
                    return False
        return True

    def layer_values(self) -> dict:
        return {}


class Score:
    """`evaluate` of a trained, saved and reloaded model on fresh held-out
    batches of a Zipf-vocabulary corpus, so most bigram keys are unseen."""

    name = "score"
    train_size, val_size, batch_size, recount_size = 600, 150, 1000, 50
    chance_margin = 0.2
    # a fixed epoch count keeps set-up time from varying with the seed
    train_config = dict(max_epochs=5, patience=5)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.model_path = work / "model.npz"
        self.accuracies: list[float] = []

    def setup(self):
        self.model = None  # a repeated set-up does not hold the last model
        self.corpus = ZipfCorpus(derive("score", self.seed))
        n_class = self.corpus.n_class
        train = self.corpus.sample(self.train_size, derive("score", self.seed, "train"))
        val = self.corpus.sample(self.val_size, derive("score", self.seed, "val"))
        examples = [
            policy.AugmentedExample(text, labels.smooth_label(y, n_class, 0.0), "original", k)
            for k, (text, y) in enumerate(train)
        ]
        model, _ = classifier.train(
            examples, val, n_class, classifier.TrainConfig(**self.train_config),
            random.Random(derive("score", self.seed)),
        )
        classifier.save_model(model, self.model_path)
        self.model = classifier.load_model(self.model_path)
        self.round_trip = (
            self.model.n_class == model.n_class
            and np.array_equal(self.model.weights, model.weights)
            and np.array_equal(self.model.bias, model.bias)
        )

    def prepare(self, i: int):
        self.batch = self.corpus.sample(self.batch_size, derive("score", self.seed, "batch", i))

    def op(self, i: int):
        self.accuracy = classifier.evaluate(self.model, self.batch)

    def check(self, i: int) -> bool:
        """Weights survive the checkpoint, `evaluate` agrees with a recount
        from `predict` on a sample, and accuracy clears a chance floor."""
        sample = self.batch[: self.recount_size]
        recount = sum(
            int(np.argmax(classifier.predict(self.model, text))) == y for text, y in sample
        ) / len(sample)
        self.accuracies.append(self.accuracy)
        return (
            self.round_trip
            and classifier.evaluate(self.model, sample) == recount
            and self.accuracy >= 1.0 / self.corpus.n_class + self.chance_margin
        )

    def layer_values(self) -> dict:
        if not self.accuracies:
            return {}
        return {"classifier.evaluate.acc_pct": 100.0 * statistics.mean(self.accuracies)}


WORKLOADS = {w.name: w for w in (Compare, Augment, Score)}
