"""Hashed bag-of-n-grams softmax linear classifier.

Features are the lowercased whitespace tokens of a text, then each
adjacent pair a, b as the bigram a_b, hashed with byte-level FNV-1a 64
masked to 18 bits, so the feature map is identical across runs and
platforms. Weights start at zero: randomness enters training only
through shuffling and augmentation.
Training minimizes soft-target cross entropy by mini-batch SGD over
shuffled batches: each batch is scored with the pre-batch weights, then
the weights and the bias step once by the batch's summed gradient,
scaled by learning_rate / len(batch); batch-mates that share a feature
column add their steps there. Training early-stops on validation accuracy.
One trainer, train_runs, trains k runs in lockstep (train is its k=1 call;
a search trial trains its runs through it): all runs' texts and the val
split are indexed in one call, their buckets are mapped to dense columns
once, and run r owns the r-th copy of those columns in one weight matrix
that, like the model's, holds one row per class. Each epoch lays out the
runs' shuffled rows step by step and gathers them once; each step then
takes one contiguous slice, one gather, one softmax and one flat 1-D
scatter-add (np.add.at at class * n_columns + column) over the batches of
the runs still going. Each run keeps its own shuffle rng, early-stop state,
best snapshot and bias step, and every cell gets its adds in the order a
training of its own would give it, so a run's results equal its own
training's bit for bit; padding adds exact zeros to its run's bucket-0
column.
Training, validation, evaluate, fit_accuracy and predict share one indexer
(_index: rows keyed by bucket, so a row depends only on its text; training
renumbers buckets to dense columns, and fit_accuracy maps rows onto a fit's)
and one scoring routine (_logits: the bias plus the first term, then each
further term in first-occurrence order). The
indexer hashes in numpy, one step per byte position over a padded byte
matrix of the batch's distinct tokens; a distinct bigram a_b continues a's
64-bit state over "_" and b, so no bigram string is built. featurize(text)
is the indexer's row for one text, so it is by construction the counts the
model reads.
"""
from __future__ import annotations

import random
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, TrainingError, is_real, require_counts
from .labels import soft_cross_entropy, softmax
from .policy import AugmentedExample

__all__ = [
    "N_BUCKETS",
    "LinearModel",
    "TrainConfig",
    "EpochStats",
    "featurize",
    "train",
    "train_runs",
    "fit_accuracy",
    "predict",
    "evaluate",
    "save_model",
    "load_model",
]

N_BUCKETS = 1 << 18

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


@dataclass
class LinearModel:
    weights: np.ndarray  # (n_class, N_BUCKETS)
    bias: np.ndarray  # (n_class,)
    n_class: int
    labels: list[str] | None = None  # class names in index order, when known

    @staticmethod
    def zeros(n_class: int) -> "LinearModel":
        return LinearModel(np.zeros((n_class, N_BUCKETS)), np.zeros(n_class), n_class)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 5

    def __post_init__(self):
        lr = self.learning_rate
        if not (is_real(lr) and lr > 0):
            raise DomainError(f"learning_rate: {lr!r} must be a finite number > 0")
        require_counts(self, "batch_size", "max_epochs", "patience")
        if self.patience > self.max_epochs:
            raise DomainError(f"patience: {self.patience} must be <= max_epochs ({self.max_epochs})")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def _fnv1a64_rows(h: np.ndarray, data: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """FNV-1a 64 states `h` continued over each row of the uint8 matrix
    `data`, up to the row's length: one xor and one wrapping multiply per
    byte position, kept on the rows still that long."""
    for j in range(data.shape[1]):
        h = np.where(lengths > j, (h ^ data[:, j]) * np.uint64(_FNV_PRIME), h)
    return h


def _key_codes(texts: list[str]) -> np.ndarray:
    """text * N_BUCKETS + bucket of every key of the texts, text by text.
    A text's keys are its lowercased whitespace tokens, then each adjacent
    pair a, b as the bigram a_b; a key's bucket is its UTF-8 bytes' FNV-1a
    64 masked to N_BUCKETS. Each distinct token is hashed once, and each
    distinct bigram a_b once, continuing a's 64-bit state over b"_" and b."""
    tokens = [text.lower().split() for text in texts]
    flat = [t for toks in tokens for t in toks]
    ids = {t: i for i, t in enumerate(dict.fromkeys(flat))}
    codes = np.fromiter(map(ids.__getitem__, flat), np.intp, len(flat))
    n_tok = np.fromiter(map(len, tokens), np.intp, len(texts))
    text_of = np.repeat(np.arange(len(texts)), n_tok)

    # distinct tokens' UTF-8 bytes, zero-padded; the lengths come from the
    # bytes, since numpy drops trailing NULs from its S items
    raw = [t.encode("utf-8") for t in ids]
    lengths = np.fromiter(map(len, raw), np.intp, len(raw))
    data = np.array(raw, dtype=np.bytes_)
    data = data.view(np.uint8).reshape(len(raw), data.itemsize)
    states = _fnv1a64_rows(np.full(len(raw), _FNV_OFFSET, np.uint64), data, lengths)

    # a bigram starts at each token that the next token's text shares
    starts = np.flatnonzero(text_of[:-1] == text_of[1:])
    pairs, pair_of = np.unique(codes[starts] * len(raw) + codes[starts + 1], return_inverse=True)
    a, b = np.divmod(pairs, len(raw))
    h = (states[a] ^ np.uint64(ord("_"))) * np.uint64(_FNV_PRIME)
    pair_states = _fnv1a64_rows(h, data[b], lengths[b])

    # each text's keys are its unigrams, then its bigrams: a unigram comes
    # after the earlier texts' bigrams, a bigram after the unigrams of its
    # own and the earlier texts
    n_bi = np.maximum(n_tok - 1, 0)
    uni_at = np.arange(len(flat)) + (np.cumsum(n_bi) - n_bi)[text_of]
    bi_at = np.arange(len(starts)) + np.cumsum(n_tok)[text_of[starts]]
    mask = np.uint64(N_BUCKETS - 1)
    keys = np.repeat(np.arange(len(texts)) * N_BUCKETS, n_tok + n_bi)
    keys[uni_at] += (states[codes] & mask).astype(np.intp)
    keys[bi_at] += (pair_states[pair_of] & mask).astype(np.intp)
    return keys


def _index(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(buckets, counts) rows of each text's key counts, in first-occurrence
    order and padded with bucket 0 at count 0."""
    code = _key_codes(texts)
    # a stable sort groups each (text, bucket) with its first position first
    order = np.argsort(code, kind="stable")
    group = np.flatnonzero(np.diff(code[order], prepend=-1))
    tally = np.zeros(len(code))
    tally[order[group]] = np.diff(group, append=len(code))
    first = np.flatnonzero(tally)
    rows, buckets = np.divmod(code[first], N_BUCKETS)
    per_row = np.bincount(rows, minlength=len(texts))
    col = np.arange(len(first)) - (np.cumsum(per_row) - per_row)[rows]
    ids = np.zeros((len(texts), per_row.max(initial=0)), np.intp)
    counts = np.zeros(ids.shape)
    ids[rows, col] = buckets
    counts[rows, col] = tally[first]
    return ids, counts


def featurize(text: str) -> dict[int, float]:
    """The text's bucket -> count map, in first-occurrence order: its _index
    row without padding. Empty text gives an empty map."""
    ids, counts = _index([text])
    return dict(zip(ids[0].tolist(), counts[0].tolist()))


def _logits(
    weights: np.ndarray, bias: np.ndarray, ids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Logits of _index rows, `weights` holding one row per class and one
    column per id, and `bias` one entry per class or one row per row: the
    bias joins the first term, then cumsum, not a dot product, adds each
    further term in the row's order. A row of width 0 gives the bias."""
    if ids.shape[1] == 0:
        return np.broadcast_to(bias, (len(ids), len(weights))).copy()
    terms = weights.take(ids, axis=1) * counts
    terms[:, :, 0] += np.atleast_2d(bias).T
    return terms.cumsum(axis=2)[:, :, -1].T


def _labels(data: list[tuple[str, int]], n_class: int) -> np.ndarray:
    """The labels of (text, label) pairs; one outside [0, n_class) raises
    DomainError."""
    y = np.fromiter((label for _, label in data), np.intp, len(data))
    outside = y[(y < 0) | (y >= n_class)]
    if outside.size:
        raise DomainError(f"label {outside[0]} is outside [0, {n_class}): the model has {n_class} classes")
    return y


def train_runs(
    runs: list[list[AugmentedExample]],
    val: list[tuple[str, int]],
    n_class: int,
    cfg: TrainConfig,
    rngs: list[random.Random],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, list[EpochStats]] | TrainingError]:
    """Train one model per run in lockstep, run i shuffling with rngs[i]:
    mini-batch SGD with per-epoch shuffling, where each batch is scored
    with the pre-batch weights, then one scatter-add steps every feature
    column by -learning_rate / len(batch) * count * gradient, example by
    example and feature by feature, and the bias steps once by the batch's
    summed gradient at the same scale. A run early-stops after `patience`
    epochs without a validation accuracy improvement and keeps its best
    snapshot (ties resolve to the earliest epoch). A val label outside
    [0, n_class) raises DomainError.

    The call maps its train and val rows' buckets to dense columns once, and
    run r trains on columns [r * width, (r + 1) * width) of one weight matrix
    with one row per class. Each epoch lays out the active runs' shuffled
    rows step by step, and within a step run by run, and gathers them once;
    each step then scores and scatters a contiguous slice, the batches of
    the runs still going, so every run's history, snapshot and rng end state
    are those of its own training alone. Returns per run (buckets, weights,
    bias, history): the call's sorted buckets, the same for every run, and
    the best snapshot's weights (one row per class and one column per
    bucket) and bias; or, for a run whose loss went non-finite, the
    TrainingError its own training would raise, while the others train on."""
    if not runs or not all(runs):
        raise DomainError("empty training set")
    if not val:
        raise DomainError("empty validation set")
    if len(rngs) != len(runs):
        raise DomainError(f"{len(rngs)} rngs for {len(runs)} runs")
    examples = [ex for run in runs for ex in run]
    widths = {len(ex.soft_label) for ex in examples} - {n_class}
    if widths:
        raise DomainError(f"soft label has {widths.pop()} classes, expected {n_class}")
    val_y = _labels(val, n_class)

    k, lengths, bs = len(runs), [len(run) for run in runs], cfg.batch_size
    offsets = np.cumsum([0] + lengths[:-1])
    ids, counts = _index([ex.text for ex in examples] + [text for text, _ in val])
    targets = np.array([ex.soft_label for ex in examples], dtype=float)
    n = len(examples)
    # one bucket -> column map for all runs; run r's train rows are offset to
    # its block [r * width, (r + 1) * width), padding to its bucket-0 column;
    # neither the indexer's ids nor the full inverse outlives the mapping
    buckets, columns = np.unique(ids, return_inverse=True)
    columns, width = columns.reshape(ids.shape), len(buckets)
    del ids
    val_columns, val_counts, counts = columns[n:].copy(), counts[n:], counts[:n]
    columns = columns[:n] + np.repeat(np.arange(k) * width, lengths)[:, None]

    weights = np.zeros((n_class, k * width))
    biases = np.zeros((k, n_class))
    best: list = [None] * k
    best_acc, stale, failed = [-1.0] * k, [0] * k, {}
    histories: list[list[EpochStats]] = [[] for _ in runs]

    orders = [list(range(m)) for m in lengths]
    active = list(range(k))
    for epoch in range(1, cfg.max_epochs + 1):
        for r in active:
            rngs[r].shuffle(orders[r])
        # the active runs' rows in visiting order, laid out step by step and
        # within a step run by run: a step's batches are one contiguous slice
        step = np.concatenate([np.arange(lengths[r]) // bs for r in active])
        plan = np.argsort(step, kind="stable")
        rows = np.concatenate([offsets[r] + np.array(orders[r]) for r in active])[plan]
        run_of, step = np.repeat(active, [lengths[r] for r in active])[plan], step[plan]
        ids_e, counts_e, targets_e = columns[rows], counts[rows], targets[rows]
        # cell (class, column) sits at class * n_columns + column of the flat weights
        cells_e = ids_e[:, None, :] + np.arange(n_class)[:, None] * (k * width)
        scale = cfg.learning_rate / np.minimum(bs, np.array(lengths)[run_of] - step * bs)
        scaled_e = -(scale[:, None] * counts_e)
        probs_e = np.empty_like(targets_e)
        lo = 0
        for start in range(0, max(lengths[r] for r in active), bs):
            sizes = [(r, min(bs, lengths[r] - start)) for r in active if start < lengths[r]]
            hi = lo + sum(size for _, size in sizes)
            z = _logits(weights, biases[run_of[lo:hi]], ids_e[lo:hi], counts_e[lo:hi])
            probs_e[lo:hi] = softmax(z)
            g = probs_e[lo:hi] - targets_e[lo:hi]
            # one unbuffered 1-D scatter-add over (row, class, position), so
            # batch-mates' steps to a shared cell add up in row order; padding
            # adds zero steps to its run's bucket-0 column
            steps = scaled_e[lo:hi, None, :] * g[:, :, None]
            np.add.at(weights.reshape(-1), cells_e[lo:hi].reshape(-1), steps.reshape(-1))
            end = 0
            for r, size in sizes:
                biases[r] -= cfg.learning_rate / size * g[end : end + size].sum(axis=0)
                end += size
            lo = hi
        del ids_e, counts_e, cells_e, scaled_e  # freed before the next epoch builds its own

        losses_e = soft_cross_entropy(probs_e, targets_e)
        for r in active:
            # summed one example at a time, in visiting order
            mean_loss = float(losses_e[run_of == r].cumsum()[-1]) / lengths[r]
            if not np.isfinite(mean_loss):
                failed[r] = epoch
                continue
            block = weights[:, r * width : (r + 1) * width]
            preds = _logits(block, biases[r], val_columns, val_counts).argmax(axis=1)
            val_acc = np.count_nonzero(preds == val_y) / len(val)
            histories[r].append(EpochStats(epoch, mean_loss, val_acc))
            if val_acc > best_acc[r]:
                best_acc[r], stale[r] = val_acc, 0
                best[r] = (block.copy(), biases[r].copy())
            else:
                stale[r] += 1
        active = [r for r in active if r not in failed and stale[r] < cfg.patience]
        if not active:
            break
    return [
        TrainingError(f"non-finite training loss at epoch {failed[r]}") if r in failed
        else (buckets, *best[r], histories[r])
        for r in range(k)
    ]


def train(
    train_examples: list[AugmentedExample],
    val: list[tuple[str, int]],
    n_class: int,
    cfg: TrainConfig,
    rng: random.Random,
) -> tuple[LinearModel, list[EpochStats]]:
    """The one-run train_runs: returns the best snapshot as a model that
    holds the run's columns in its 2^18 buckets and is zero elsewhere, and
    the epoch history. Batches and validation are scored with _logits, so
    their logits match the returned model's bit for bit."""
    [fit] = train_runs([train_examples], val, n_class, cfg, [rng])
    if isinstance(fit, TrainingError):
        raise fit
    buckets, weights, bias, history = fit
    model = LinearModel.zeros(n_class)
    model.weights[:, buckets] = weights
    model.bias = bias
    return model, history


def fit_accuracy(fit, ids: np.ndarray, counts: np.ndarray, y: np.ndarray) -> float:
    """evaluate of the model train builds from a train_runs fit, on _index rows
    (ids, counts) labelled y, scored on the fit's own columns: a bucket it does
    not hold scores +0.0, as in that model. A failed run's fit raises its error."""
    if isinstance(fit, TrainingError):
        raise fit
    buckets, weights, bias, _ = fit
    at = np.searchsorted(buckets, ids)
    # a bucket the fit does not hold reads the appended zero column
    columns = np.where(np.append(buckets, -1)[at] == ids, at, len(buckets))
    weights = np.hstack([weights, np.zeros((len(weights), 1))])
    preds = _logits(weights, bias, columns, counts).argmax(axis=1)
    return np.count_nonzero(preds == y) / len(y)


def predict(model: LinearModel, text: str) -> np.ndarray:
    """Class probabilities: softmax(weights . featurize(text) + bias)."""
    ids, counts = _index([text])
    return softmax(_logits(model.weights, model.bias, ids, counts)[0])


def evaluate(model: LinearModel, data: list[tuple[str, int]]) -> float:
    """Fraction of examples whose argmax prediction matches the label.
    Argmax ties break toward the lowest class index. A label outside
    [0, model.n_class) raises DomainError."""
    if not data:
        raise DomainError("empty evaluation set")
    y = _labels(data, model.n_class)
    ids, counts = _index([text for text, _ in data])
    preds = _logits(model.weights, model.bias, ids, counts).argmax(axis=1)
    return np.count_nonzero(preds == y) / len(data)


_CHECKPOINT_VERSION = 1


def save_model(model: LinearModel, path):
    """Checkpoint: compressed npz with version, n_class, weights, bias, and
    labels (a string array) when the model has them."""
    arrays = {"weights": model.weights, "bias": model.bias}
    if model.labels is not None:
        arrays["labels"] = np.array(model.labels, dtype=str)
    # write through a handle so numpy keeps the caller's extension as-is
    with open(path, "wb") as f:
        np.savez_compressed(
            f,
            version=np.int64(_CHECKPOINT_VERSION),
            n_class=np.int64(model.n_class),
            **arrays,
        )


def load_model(path) -> LinearModel:
    """Read a save_model checkpoint. A file that is not an npz archive, a
    missing or unreadable key, n_class below 2, a weights or bias shape that
    does not match n_class and N_BUCKETS, a non-finite value, or labels that
    are not n_class distinct strings raises DataError. A checkpoint without
    labels loads with labels None."""
    try:
        # numpy leaves its own handle open when the archive is unreadable
        with open(path, "rb") as f, np.load(f) as data:
            missing = [k for k in ("version", "n_class", "weights", "bias") if k not in data.files]
            if missing:
                raise DataError(f"checkpoint {path}: missing {', '.join(missing)}")
            version, n_class = int(data["version"]), int(data["n_class"])
            weights, bias = data["weights"], data["bias"]
            labels = data["labels"] if "labels" in data.files else None
        finite = np.isfinite(weights).all() and np.isfinite(bias).all()
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as e:
        raise DataError(f"checkpoint {path}: not a readable checkpoint ({e})") from e
    if version != _CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {version}")
    if n_class < 2:
        raise DataError(f"checkpoint {path}: n_class={n_class}, expected at least 2")
    if weights.shape != (n_class, N_BUCKETS) or bias.shape != (n_class,):
        raise DataError(
            f"checkpoint {path}: weights {weights.shape} and bias {bias.shape} do not fit "
            f"n_class={n_class} and {N_BUCKETS} buckets"
        )
    if not finite:
        raise DataError(f"checkpoint {path}: non-finite weights or bias")
    if labels is not None:
        if labels.dtype.kind != "U" or labels.shape != (n_class,) or len(set(labels.tolist())) != n_class:
            raise DataError(f"checkpoint {path}: labels {labels!r} are not {n_class} distinct names")
        labels = labels.tolist()
    return LinearModel(weights, bias, n_class, labels)
