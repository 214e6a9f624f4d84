"""Labeled datasets: ingestion, stratified subsampling, and splits.

A dataset file is CSV/TSV with a `text,label` header or JSON Lines with
"text"/"label" keys; an optional `split` column/key assigns rows to
train/val/test (default train). Label strings map to contiguous class
indices in the order of a list of names the caller passes, of a
`<path>.labels.json` sidecar (a JSON array), or of first appearance.
"""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .augment import _below, _sample
from .errors import DataError, DomainError

__all__ = [
    "LabeledDataset",
    "load_dataset",
    "subsample",
    "make_val_split",
    "make_synthetic_reviews",
]

Example = tuple[str, int]

_SPLIT_NAMES = ("train", "val", "test")


@dataclass
class LabeledDataset:
    name: str
    n_class: int
    splits: dict[str, list[Example]]
    label_names: list[str] | None = None

    def split(self, name: str) -> list[Example]:
        part = self.splits.get(name, [])
        if not part:
            raise DomainError(f"dataset {self.name!r} has no {name!r} split")
        return part


def load_dataset(path, fmt: str | None = None, labels: list[str] | None = None) -> LabeledDataset:
    """Load CSV/TSV/JSONL into a LabeledDataset. fmt defaults from the file
    extension; `labels`, checked as a sidecar's names are, fixes the class
    order and wins over a sidecar. Raises DataError naming the offending line."""
    path = Path(path)
    if fmt is None:
        fmt = {".csv": "csv", ".tsv": "tsv", ".jsonl": "jsonl"}.get(path.suffix)
        if fmt is None:
            raise DataError(f"cannot infer format from {path.name!r}; pass fmt")
    if fmt not in ("csv", "tsv", "jsonl"):
        raise DataError(f"unsupported format {fmt!r}")

    sidecar = path.with_name(path.name + ".labels.json")
    if labels is not None:
        _check_label_names(labels, "labels")
    elif sidecar.exists():
        labels = _read_label_names(sidecar)
    fixed_labels = labels is not None
    label_map = {lbl: i for i, lbl in enumerate(labels or ())}

    try:
        rows = _read_rows(path, fmt)
    except UnicodeDecodeError as e:
        raise DataError(f"{path.name}: not UTF-8 text ({e})") from None
    if not rows:
        raise DataError(f"{path.name}: no examples")

    splits: dict[str, list[Example]] = {s: [] for s in _SPLIT_NAMES}
    for i, (text, label, split) in enumerate(rows, start=1):
        if label not in label_map:
            if fixed_labels:
                raise DataError(f"{path.name} row {i}: unknown label {label!r}")
            label_map[label] = len(label_map)
        if split not in splits:
            raise DataError(f"{path.name} row {i}: unknown split {split!r}")
        splits[split].append((text, label_map[label]))

    label_names = [lbl for lbl, _ in sorted(label_map.items(), key=lambda kv: kv[1])]
    return LabeledDataset(
        name=path.stem,
        n_class=len(label_map),
        splits={s: part for s, part in splits.items() if part},
        label_names=label_names,
    )


def _read_rows(path: Path, fmt: str) -> list[tuple[str, str, str]]:
    """The (text, label string, split) rows of a dataset file."""
    rows = []
    if fmt == "jsonl":
        with open(path, encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DataError(f"{path.name} line {lineno}: invalid JSON ({e.msg})")
                if not isinstance(obj, dict):
                    raise DataError(f"{path.name} line {lineno}: expected a JSON object")
                if "text" not in obj or "label" not in obj:
                    raise DataError(f"{path.name} line {lineno}: missing text/label")
                text, label = obj["text"], obj["label"]
                if not isinstance(text, str):
                    raise DataError(f"{path.name} line {lineno}: text {text!r} is not a string")
                try:  # a JSON "\ud800" escape decodes to a lone surrogate, which UTF-8 cannot hold
                    text.encode("utf-8")
                except UnicodeEncodeError as e:
                    msg = f"{path.name} line {lineno}: text has a lone surrogate at index {e.start}"
                    raise DataError(msg) from None
                if isinstance(label, bool) or not isinstance(label, (str, int)):
                    raise DataError(f"{path.name} line {lineno}: label {label!r} is not a string or an integer")
                rows.append((text, str(label), str(obj.get("split", "train"))))
    else:
        delim = "," if fmt == "csv" else "\t"
        with open(path, encoding="utf-8-sig", newline="") as f:
            reader = csv.DictReader(f, delimiter=delim)
            if reader.fieldnames is None or not {"text", "label"} <= set(reader.fieldnames):
                raise DataError(f"{path.name}: header must include text,label")
            for lineno, row in enumerate(reader, start=2):
                if row["text"] is None or row["label"] is None:
                    raise DataError(f"{path.name} line {lineno}: missing field")
                rows.append((row["text"], row["label"], row.get("split") or "train"))
    return rows


def _read_label_names(sidecar: Path) -> list[str]:
    """The label names of a `.labels.json` sidecar: a JSON list of distinct
    strings, in class-index order."""
    try:
        names = json.loads(sidecar.read_text("utf-8-sig"))
    except json.JSONDecodeError as e:
        raise DataError(f"{sidecar.name}: invalid JSON ({e.msg})")
    except UnicodeDecodeError as e:
        raise DataError(f"{sidecar.name}: not UTF-8 text ({e})") from None
    if not isinstance(names, list):
        raise DataError(f"{sidecar.name}: expected a JSON list of label names")
    _check_label_names(names, sidecar.name)
    return names


def _check_label_names(names, source: str) -> None:
    """Raise DataError, naming `source`, unless `names` are distinct strings."""
    if not_str := [name for name in names if not isinstance(name, str)]:
        raise DataError(f"{source}: label name {not_str[0]!r} is not a string")
    if dups := sorted({name for name in names if names.count(name) > 1}):
        raise DataError(f"{source}: duplicate label names {dups}")


def _largest_remainder_quotas(counts: list[int], n: int) -> list[int]:
    """Integer quotas proportional to counts summing to n, largest-remainder
    rounding with ties toward the lower class index, then each nonempty
    class lifted to >= 1; n must be at least the number of nonempty classes."""
    total = sum(counts)
    exact = [n * c / total for c in counts]
    quotas = [int(q) for q in exact]
    leftover = n - sum(quotas)
    by_remainder = sorted(range(len(counts)), key=lambda c: (-(exact[c] - quotas[c]), c))
    for c in by_remainder[:leftover]:
        quotas[c] += 1
    # lift empty-quota classes, taking from the largest quota
    for c in range(len(counts)):
        while counts[c] > 0 and quotas[c] < 1:
            donor = max(range(len(counts)), key=lambda d: (quotas[d], -d))
            quotas[donor] -= 1
            quotas[c] += 1
    for c, q in enumerate(quotas):
        if q > counts[c]:
            raise DomainError(f"class {c} has only {counts[c]} examples, need {q}")
    return quotas


def _stratified_split(
    examples: list[Example], n: int, seed: int
) -> tuple[list[Example], list[Example]]:
    """Draw n examples with class-proportional quotas, without replacement,
    from random.Random(seed); returns (picked, rest), both in original order.
    Raises DomainError when n is below the number of classes present."""
    by_class: dict[int, list[int]] = {}
    for i, (_, y) in enumerate(examples):
        by_class.setdefault(y, []).append(i)
    if n < len(by_class):
        raise DomainError(f"cannot stratify: n={n} < {len(by_class)} classes present")
    counts = [len(by_class.get(c, ())) for c in range(max(by_class) + 1)]
    quotas = _largest_remainder_quotas(counts, n)
    rng = random.Random(seed)
    chosen: set[int] = set()
    for c in sorted(by_class):  # an absent class draws nothing
        chosen.update(_sample(rng, by_class[c], quotas[c]))
    picked = [ex for i, ex in enumerate(examples) if i in chosen]
    rest = [ex for i, ex in enumerate(examples) if i not in chosen]
    return picked, rest


def subsample(data: LabeledDataset, n: int, seed: int) -> LabeledDataset:
    """Stratified sample of n train examples (class-proportional quotas,
    largest-remainder rounding); val/test pass through unchanged."""
    train = data.split("train")
    if n > len(train):
        raise DomainError(f"n={n} exceeds train size {len(train)}")
    splits = dict(data.splits)
    splits["train"], _ = _stratified_split(train, n, seed)
    return LabeledDataset(data.name, data.n_class, splits, data.label_names)


def make_val_split(
    train: list[Example], fraction: float, seed: int
) -> tuple[list[Example], list[Example]]:
    """Stratified holdout of round(fraction*N) examples as validation, at
    least one per class present."""
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"fraction must be in (0, 1), got {fraction}")
    if not train:
        raise DomainError("empty train list")
    present = len({y for _, y in train})
    n_val = max(present, int(fraction * len(train) + 0.5))
    if n_val >= len(train):
        raise DomainError("holdout would leave no training examples")
    val, rest = _stratified_split(train, n_val, seed)
    return rest, val


_POS_FAMILIES = [
    ["great", "good", "fine", "nice", "decent"],
    ["excellent", "outstanding", "superb", "exceptional"],
    ["wonderful", "marvelous", "fabulous", "fantastic", "terrific"],
    ["amazing", "astonishing", "incredible", "stunning"],
    ["delightful", "charming", "enchanting", "lovely"],
    ["enjoyable", "entertaining", "amusing", "engaging"],
    ["touching", "moving", "poignant", "heartfelt"],
    ["clever", "smart", "ingenious", "witty"],
    ["funny", "humorous", "comical", "hilarious"],
    ["exciting", "thrilling", "gripping", "exhilarating"],
    ["compelling", "captivating", "absorbing", "riveting"],
    ["memorable", "unforgettable", "remarkable", "notable"],
]
_NEG_FAMILIES = [
    ["terrible", "awful", "dreadful", "horrible", "atrocious"],
    ["bad", "poor", "lousy", "inferior"],
    ["boring", "tedious", "dull", "monotonous", "tiresome"],
    ["disappointing", "unsatisfying", "underwhelming", "lackluster"],
    ["weak", "feeble", "flimsy", "anemic"],
    ["messy", "sloppy", "disorganized", "chaotic"],
    ["annoying", "irritating", "aggravating", "vexing"],
    ["bland", "insipid", "vapid", "flat"],
    ["predictable", "formulaic", "unoriginal", "derivative"],
    ["clumsy", "awkward", "bungling", "inept"],
    ["confusing", "puzzling", "baffling", "perplexing"],
    ["stupid", "foolish", "silly", "idiotic"],
]
_NOUNS = ["movie", "film", "plot", "acting", "story", "script", "dialogue",
          "ending", "cast", "direction", "pacing", "soundtrack"]
_TEMPLATES = [
    "the {noun} was {adj} and the {noun2} felt {adj2}",
    "i thought the {noun} was really {adj} with a {adj2} {noun2}",
    "a {adj} {noun} with {adj2} {noun2} throughout",
    "critics called the {noun} {adj} but the {noun2} was {adj2}",
    "overall the {noun} seemed {adj} even if the {noun2} looked {adj2}",
    "this {noun} is {adj} and its {noun2} is downright {adj2}",
]
_N_TRAIN, _N_TEST = 2000, 600
_NOISE = 0.08  # the chance a sentence mixes in one word from the opposite class


def make_synthetic_reviews(seed: int = 7) -> LabeledDataset:
    """Deterministic 2-class movie-review surrogate for desk-scale runs.

    Sentiment words come from synonym families present in the bundled
    lexicon, so synonym-based augmentation can surface words a small
    subsample never saw. Words are picked with `augment._below` and the
    two nouns with `augment._sample`, which draw what `rng.choice` and
    `rng.sample` would, so a seed gives the same dataset as with those.
    """
    rng = random.Random(seed)

    def pick(seq):
        return seq[_below(rng, len(seq))]

    def sentence(label: int) -> str:
        families = _POS_FAMILIES if label == 1 else _NEG_FAMILIES
        other = _NEG_FAMILIES if label == 1 else _POS_FAMILIES
        adj = pick(pick(families))
        adj2 = pick(pick(families))
        if rng.random() < _NOISE:
            adj2 = pick(pick(other))
        noun, noun2 = _sample(rng, _NOUNS, 2)
        template = pick(_TEMPLATES)
        return template.format(noun=noun, noun2=noun2, adj=adj, adj2=adj2)

    def build(n: int) -> list[Example]:
        return [(sentence(i % 2), i % 2) for i in range(n)]

    return LabeledDataset(
        name="synthetic-reviews",
        n_class=2,
        splits={"train": build(_N_TRAIN), "test": build(_N_TEST)},
        label_names=["negative", "positive"],
    )
