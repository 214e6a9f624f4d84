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
column. A run's model holds only the columns in which its best snapshot
has a set bit.
Training, validation, evaluate and predict share one indexer (_index: rows
keyed by bucket, so a row depends only on its text) and one scoring routine
(_logits: the bias plus the first term, then each further term in
first-occurrence order). Training and evaluate map buckets to columns by one
table (_positions): training numbers the buckets its rows hold, evaluate drops
as it hashes each key in a bucket the model does not hold (it would add +0.0),
and predict, scoring one text, binary-searches the model's buckets instead. The
indexer takes each distinct text once, joins the tokens into one UTF-8 buffer
and hashes each occurrence in numpy over its span, one step per byte position;
a bigram a_b continues a's 64-bit state over "_" and b's span.
featurize(text) is the indexer's row for one text, so it is by
construction the counts the model reads.
A checkpoint (version 2) stores a model's arrays as they are, uncompressed,
and load_model validates every field before it builds the model from them.
"""
from __future__ import annotations

import os
import random
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

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
    """A model in the form its checkpoint stores. A bucket it does not hold
    scores +0.0; a trained model holds exactly the buckets in which some
    class's weight has a set bit, -0.0 included."""

    buckets: np.ndarray  # (n_held,) sorted bucket ids, int64 from training
    weights: np.ndarray  # (n_class, n_held)
    bias: np.ndarray  # (n_class,)
    labels: list[str] | None = None  # class names in index order, when known

    @property
    def n_class(self) -> int:
        return len(self.bias)


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


def _fnv1a64_spans(h: np.ndarray, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """FNV-1a 64 states `h` continued over the spans buf[start : start +
    length] of the uint8 buffer, one xor and one wrapping multiply per byte
    position. The spans are visited longest first, so byte position j works
    on the prefix of the spans longer than j."""
    order = np.argsort(-lengths)
    h, starts = h[order], starts[order]
    longer = len(lengths) - np.cumsum(np.bincount(lengths))  # [j]: spans longer than j
    for j, n in enumerate(longer[:-1].tolist()):
        h[:n] ^= buf[starts[:n] + j]
        h[:n] *= np.uint64(_FNV_PRIME)
    states = np.empty_like(h)
    states[order] = h
    return states


def _key_codes(texts: list[str], pos: np.ndarray | None = None, held: int = 0) -> np.ndarray:
    """text * N_BUCKETS + bucket of every key of the texts, text by text.
    A text's keys are its lowercased whitespace tokens, then each adjacent
    pair a, b as the bigram a_b; a key's bucket is its UTF-8 bytes' FNV-1a
    64 masked to N_BUCKETS. The tokens are joined into one UTF-8 buffer, and
    each token and bigram occurrence is hashed over its span of it, a bigram
    a_b continuing a's 64-bit state over b"_" and b; `pos` filters as in _index."""
    tokens = [text.lower().split() for text in texts]
    text_of = np.repeat(np.arange(len(texts)), np.fromiter(map(len, tokens), np.intp, len(texts)))
    # a token holds no whitespace, and UTF-8 puts no 0x20 inside a multi-byte
    # sequence: the tokens are the non-empty runs between the spaces
    buf = np.frombuffer(f" {' '.join(map(' '.join, tokens))} ".encode("utf-8"), np.uint8)
    cuts = np.flatnonzero(buf == ord(" "))
    gaps = np.diff(cuts) - 1
    starts, lengths = cuts[:-1][gaps > 0] + 1, gaps[gaps > 0]
    states = _fnv1a64_spans(np.full(len(starts), _FNV_OFFSET, np.uint64), buf, starts, lengths)

    # a bigram starts at each token that the next token's text shares
    first = np.flatnonzero(text_of[:-1] == text_of[1:])
    h = (states[first] ^ np.uint64(ord("_"))) * np.uint64(_FNV_PRIME)
    pair_states = _fnv1a64_spans(h, buf, starts[first + 1], lengths[first + 1])

    # a stable sort by text puts each text's unigrams before its bigrams
    rows = np.concatenate([text_of, text_of[first]])
    buckets = (np.concatenate([states, pair_states]) & np.uint64(N_BUCKETS - 1)).astype(np.intp)
    if pos is not None:
        kept = np.flatnonzero(pos[buckets] < held)  # an index gathers faster than a mask here
        rows, buckets = rows[kept], buckets[kept]
    return (rows * N_BUCKETS + buckets)[np.argsort(rows, kind="stable")]


def _index(texts: list[str], pos: np.ndarray | None = None, held: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(buckets, counts) rows of each text's key counts, in first-occurrence
    order and padded with bucket 0 at count 0; given a _positions table `pos`,
    without the keys whose bucket's position is not below `held`, dropped as
    they are hashed. A row depends only on its text: each distinct text is
    indexed once, its row gathered when some repeats."""
    slot = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    code = _key_codes(list(slot), pos, held)
    # a stable sort groups each (text, bucket) with its first position first
    order = np.argsort(code, kind="stable")
    group = np.flatnonzero(np.diff(code[order], prepend=-1))
    tally = np.zeros(len(code))
    tally[order[group]] = np.diff(group, append=len(code))
    first = np.flatnonzero(tally)
    rows, buckets = np.divmod(code[first], N_BUCKETS)
    per_row = np.bincount(rows, minlength=len(slot))
    col = np.arange(len(first)) - (np.cumsum(per_row) - per_row)[rows]
    ids = np.zeros((len(slot), per_row.max(initial=0)), np.intp)
    counts = np.zeros(ids.shape)
    ids[rows, col] = buckets
    counts[rows, col] = tally[first]
    if len(slot) == len(texts):  # all distinct: laid out in text order
        return ids, counts
    inverse = np.fromiter(map(slot.__getitem__, texts), np.intp, len(texts))
    return ids[inverse], counts[inverse]


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
    terms = weights.take(ids, axis=1)
    terms *= counts
    terms[:, :, 0] += np.atleast_2d(bias).T
    return terms.cumsum(axis=2, out=terms)[:, :, -1].T


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
) -> list[tuple[LinearModel, list[EpochStats]] | TrainingError]:
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
    are those of its own training alone. Returns per run (model, history):
    the best snapshot as a model holding the buckets in which some class's
    weight has a set bit; or, for a run whose loss went non-finite, the
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
    # one bucket -> column map for all runs, the _positions table of the buckets present; run
    # r's rows are offset in intp to its block [r*width, (r+1)*width), padding to its bucket 0
    present = np.zeros(N_BUCKETS, bool)
    present[ids] = True
    buckets = np.flatnonzero(present)
    columns, width = _positions(buckets)[ids], len(buckets)
    del ids, present
    val_columns, val_counts, counts = columns[n:].copy(), counts[n:], counts[:n]
    columns = columns[:n] + np.repeat(np.arange(k) * width, lengths)[:, None]

    weights = np.zeros((n_class, k * width))
    biases = np.zeros((k, n_class))
    best: list = [None] * k
    best_acc, stale, failed = [-1.0] * k, [0] * k, {}
    histories: list[list[EpochStats]] = [[] for _ in runs]

    orders = [list(range(m)) for m in lengths]
    active = list(range(k))
    # a diverging run fails by its non-finite loss; numpy's warnings on the way add nothing
    with np.errstate(over="ignore", invalid="ignore"):
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
                    # held: the columns where some class's weight has a set bit, -0.0 too
                    held = block.view(np.uint64).any(axis=0)
                    best[r] = LinearModel(buckets[held], block[:, held], biases[r].copy())
                else:
                    stale[r] += 1
            active = [r for r in active if r not in failed and stale[r] < cfg.patience]
            if not active:
                break
    return [
        TrainingError(f"non-finite training loss at epoch {failed[r]}") if r in failed
        else (best[r], histories[r])
        for r in range(k)
    ]


def train(
    train_examples: list[AugmentedExample],
    val: list[tuple[str, int]],
    n_class: int,
    cfg: TrainConfig,
    rng: random.Random,
) -> tuple[LinearModel, list[EpochStats]]:
    """The one-run train_runs: the best snapshot's model and the epoch
    history; a non-finite loss raises the run's TrainingError. Batches and
    validation are scored with _logits, as the model is, bit for bit."""
    [fit] = train_runs([train_examples], val, n_class, cfg, [rng])
    if isinstance(fit, TrainingError):
        raise fit
    return fit


def _positions(buckets: np.ndarray) -> np.ndarray:
    """Position table of sorted bucket ids: a bucket's index in `buckets`, len(buckets) for others."""
    held = len(buckets)
    pos = np.full(N_BUCKETS, held, np.min_scalar_type(held))  # uint16 below 65,536 buckets
    pos[buckets] = np.arange(held)
    return pos


def _accuracy(model: LinearModel, ids: np.ndarray, counts: np.ndarray, y: np.ndarray,
              pos: np.ndarray | None = None) -> float:
    """Fraction of _index rows (ids, counts) whose argmax logit is their label
    in y; argmax ties break toward the lowest class index. The model's
    _positions table `pos` sends an unheld bucket to an appended +0.0 column."""
    pos = _positions(model.buckets) if pos is None else pos
    weights = np.hstack([model.weights, np.zeros((model.n_class, 1))])
    preds = _logits(weights, model.bias, pos[ids], counts).argmax(axis=1)
    return np.count_nonzero(preds == y) / len(y)


def predict(model: LinearModel, text: str) -> np.ndarray:
    """Class probabilities: softmax(weights . featurize(text) + bias). The
    text's buckets are found in model.buckets by binary search, and a bucket
    the model does not hold reads +0.0: no table of N_BUCKETS is built."""
    ids, counts = _index([text])
    at = np.searchsorted(model.buckets, ids[0])
    hit = at < len(model.buckets)
    hit[hit] = model.buckets[at[hit]] == ids[0][hit]
    weights = np.zeros((model.n_class, ids.shape[1]))
    weights[:, hit] = model.weights[:, at[hit]]
    return softmax(_logits(weights, model.bias, np.arange(ids.shape[1])[None], counts)[0])


def evaluate(model: LinearModel, data: list[tuple[str, int]]) -> float:
    """Fraction of examples whose argmax prediction matches the label.
    Argmax ties break toward the lowest class index. A label outside
    [0, model.n_class) raises DomainError. A key in a bucket the model does
    not hold is dropped as it is hashed: its +0.0 could only turn a -0.0
    logit into +0.0, which neither argmax nor softmax sees."""
    if not data:
        raise DomainError("empty evaluation set")
    y = _labels(data, model.n_class)
    pos, held = _positions(model.buckets), len(model.buckets)
    return _accuracy(model, *_index([text for text, _ in data], pos, held), y, pos)


_CHECKPOINT_VERSION = 2


@contextmanager
def _atomic_write(path):
    """A binary handle to `path`.tmp, renamed over `path` when the block ends:
    a write that fails leaves an existing file as it was, and no .tmp file."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_model(model: LinearModel, path):
    """Checkpoint version 2: an uncompressed npz with version, n_class and
    the model's arrays as they are: buckets, weights (one row per class, one
    column per bucket), bias, and labels (a string array) when the model has
    them. A trained model holds a few percent of the N_BUCKETS buckets, so
    these are about the size of the zlib-compressed dense matrix, without
    zlib's cost. The file is written through _atomic_write, so a save that
    fails leaves an existing checkpoint as it was."""
    arrays = {"buckets": model.buckets, "weights": model.weights, "bias": model.bias}
    if model.labels is not None:
        arrays["labels"] = np.array(model.labels, dtype=str)
    # streamed into the handle, so numpy keeps the caller's extension as-is
    with _atomic_write(path) as f:
        np.savez(f, version=np.int64(_CHECKPOINT_VERSION), n_class=np.int64(model.n_class), **arrays)


def load_model(path) -> LinearModel:
    """Read a save_model checkpoint into the model it holds, so
    load_model(save_model(m)) gives back m's arrays. The version is read
    first, then every other field and shape. A file that is not an npz
    archive, a version other than 2 (version-1 files are not read:
    retrain), a missing key, a version or n_class that is not an integer
    scalar, n_class below 2, buckets that are not strictly increasing
    integers in [0, N_BUCKETS), weights or bias that are not float64 or do
    not fit n_class and buckets, a non-finite value, or labels that are not
    n_class distinct strings raises DataError naming the field. A
    checkpoint without labels loads with labels None."""
    try:
        # numpy leaves its own handle open when the archive is unreadable
        with open(path, "rb") as f, np.load(f) as data:
            fields = {key: data[key] for key in data.files}
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as e:
        raise DataError(f"checkpoint {path}: not a readable checkpoint ({e})") from e

    def read(key: str, chars: str, expected: str, ndim: int | None = None) -> np.ndarray:
        if key not in fields:
            raise DataError(f"checkpoint {path}: missing {key}")
        value = fields[key]
        if value.dtype.char not in chars or ndim not in (None, value.ndim):
            raise DataError(
                f"checkpoint {path}: not a readable checkpoint ({key} is a {value.dtype} "
                f"array of shape {value.shape}, expected {expected})"
            )
        return value

    integers = np.typecodes["AllInteger"]  # bool is not among them
    version = int(read("version", integers, "an integer scalar", 0))
    if version != _CHECKPOINT_VERSION:
        raise DataError(f"checkpoint {path}: unsupported checkpoint version {version}; retrain the model")
    n_class = int(read("n_class", integers, "an integer scalar", 0))
    buckets = read("buckets", integers, "a 1-D integer array", 1)
    weights, bias = read("weights", "d", "float64"), read("bias", "d", "float64")
    labels = fields.get("labels")
    if n_class < 2:
        raise DataError(f"checkpoint {path}: n_class={n_class}, expected at least 2")
    # neighbours compared, not differenced: np.diff wraps on unsigned ids
    increasing = (buckets[1:] > buckets[:-1]).all()
    if buckets.size and not (increasing and buckets[0] >= 0 and buckets[-1] < N_BUCKETS):
        raise DataError(f"checkpoint {path}: buckets are not strictly increasing ids in [0, {N_BUCKETS})")
    if weights.shape != (n_class, len(buckets)) or bias.shape != (n_class,):
        raise DataError(
            f"checkpoint {path}: weights {weights.shape} and bias {bias.shape} do not fit "
            f"n_class={n_class} and {len(buckets)} buckets"
        )
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise DataError(f"checkpoint {path}: non-finite weights or bias")
    if labels is not None:
        if labels.dtype.kind != "U" or labels.shape != (n_class,) or len(set(labels.tolist())) != n_class:
            raise DataError(f"checkpoint {path}: labels {labels!r} are not {n_class} distinct names")
        labels = labels.tolist()
    return LinearModel(buckets, weights, bias, labels)
