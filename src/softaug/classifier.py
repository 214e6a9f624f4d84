"""Hashed bag-of-n-grams softmax linear classifier.

Features are unigrams and bigrams of the lowercased, whitespace-split
text, hashed with byte-level FNV-1a 64 masked to 18 bits, so the feature
map is identical across runs and platforms. Weights start at zero:
randomness enters training only through shuffling and augmentation.
Training minimizes soft-target cross entropy over shuffled batches with
two step rules: the weights step after every example, so a later example
in a batch sees the steps of the ones before it, and the bias steps once
per batch with the batch's summed gradient; both steps are scaled by
learning_rate / len(batch). Training early-stops on validation accuracy.
Validation, evaluate and predict score text with one routine (_logits),
which adds the bias and then each feature's term in featurize's order.
"""
from __future__ import annotations

import random
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, TrainingError
from .labels import soft_cross_entropy, softmax
from .policy import AugmentedExample

__all__ = [
    "N_BUCKETS",
    "FeatureVector",
    "LinearModel",
    "TrainConfig",
    "EpochStats",
    "fnv1a64",
    "featurize",
    "train",
    "predict",
    "evaluate",
    "save_model",
    "load_model",
]

N_BUCKETS = 1 << 18

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

FeatureVector = dict[int, float]  # bucket index -> positive count


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit over raw bytes."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _bucket(key: str) -> int:
    return fnv1a64(key.encode("utf-8")) & (N_BUCKETS - 1)


def _keys(text: str) -> list[str]:
    """The lowercased whitespace tokens, then their bigrams joined with '_'."""
    tokens = text.lower().split()
    return tokens + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]


def featurize(text: str) -> FeatureVector:
    """Unigram + bigram counts hashed into 2^18 buckets. Bigram keys join
    adjacent tokens with '_'. Empty text gives an empty vector."""
    feats: FeatureVector = {}
    for key in _keys(text):
        idx = _bucket(key)
        feats[idx] = feats.get(idx, 0.0) + 1.0
    return feats


@dataclass
class LinearModel:
    weights: np.ndarray  # (n_class, N_BUCKETS)
    bias: np.ndarray  # (n_class,)
    n_class: int

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
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise DomainError("learning_rate, batch_size, max_epochs must be positive")
        if not 1 <= self.patience <= self.max_epochs:
            raise DomainError("patience must be in [1, max_epochs]")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def _compact(
    texts: list[str], columns: dict[int, int], keys: dict[str, int]
) -> list[FeatureVector]:
    """Each text's featurize() vector with every bucket renumbered to a
    dense column. `columns` maps bucket -> column and grows by one for each
    new bucket; `keys` maps key -> column, so each distinct key is hashed once."""
    out = []
    for text in texts:
        feats: FeatureVector = {}
        for key in _keys(text):
            col = keys.get(key)
            if col is None:
                col = keys[key] = columns.setdefault(_bucket(key), len(columns))
            feats[col] = feats.get(col, 0.0) + 1.0
        out.append(feats)
    return out


def _padded(feats: list[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    """(ids, counts) rows in each vector's order, padded with id 0 at count 0."""
    width = max(map(len, feats))
    ids = np.zeros((len(feats), width), dtype=np.intp)
    counts = np.zeros((len(feats), width))
    for row, f in enumerate(feats):
        ids[row, : len(f)] = list(f)
        counts[row, : len(f)] = list(f.values())
    return ids, counts


def _logits(
    weights: np.ndarray, bias: np.ndarray, ids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Logits of _padded rows, `weights` holding one row per id: cumsum, not a
    dot product, adds the bias and then each term in the row's order."""
    terms = weights[ids] * counts[:, :, None]
    z = np.concatenate((np.broadcast_to(bias, (len(ids), 1, len(bias))), terms), axis=1)
    return z.cumsum(axis=1)[:, -1]


def train(
    train_examples: list[AugmentedExample],
    val: list[tuple[str, int]],
    n_class: int,
    cfg: TrainConfig,
    rng: random.Random,
) -> tuple[LinearModel, list[EpochStats]]:
    """SGD with per-epoch shuffling: each batch steps the weights once per
    example, in batch order, and the bias once with the batch's summed
    gradient, both by learning_rate / len(batch). Early-stops after
    `patience` epochs without a validation accuracy improvement and
    returns the best snapshot (ties resolve to the earliest epoch).

    Training runs on the buckets seen in train+val, renumbered to dense
    columns; the returned model holds them in its 2^18 buckets and is zero
    elsewhere. Logits sum in featurize's order, as in _logits, so they
    match the returned model's bit for bit."""
    if not train_examples:
        raise DomainError("empty training set")
    if not val:
        raise DomainError("empty validation set")
    for ex in train_examples:
        if len(ex.soft_label) != n_class:
            raise DomainError(
                f"soft label has {len(ex.soft_label)} classes, expected {n_class}"
            )

    columns: dict[int, int] = {}
    keys: dict[str, int] = {}
    feats = [
        (np.array(list(f), dtype=np.intp), np.array(list(f.values()))[:, None])
        for f in _compact([ex.text for ex in train_examples], columns, keys)
    ]
    targets = np.array([ex.soft_label for ex in train_examples], dtype=float)
    val_ids, val_counts = _padded(_compact([text for text, _ in val], columns, keys))

    weights = np.zeros((len(columns), n_class))
    bias = np.zeros(n_class)
    best = (weights, bias)
    best_acc = -1.0
    stale = 0
    history: list[EpochStats] = []

    order = list(range(len(train_examples)))
    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(order)
        probs_seen = np.empty((len(order), n_class))  # in visiting order
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scale = cfg.learning_rate / len(batch)
            bias_grad = np.zeros(n_class)
            for row, i in enumerate(batch, start):
                ids, counts = feats[i]
                rows = weights[ids]
                # cumsum, not a dot product: the terms add one at a time in
                # featurize's order, as in _logits, to the last bit
                z = np.concatenate((bias[None], rows * counts)).cumsum(axis=0)[-1]
                probs_seen[row] = probs = softmax(z)
                g = probs - targets[i]
                bias_grad += g
                weights[ids] = rows - (scale * counts) * g
            bias -= scale * bias_grad
        # summed one example at a time, in visiting order
        losses = soft_cross_entropy(probs_seen, targets[order])
        mean_loss = float(losses.cumsum()[-1]) / len(order)
        if not np.isfinite(mean_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")

        preds = _logits(weights, bias, val_ids, val_counts).argmax(axis=1)
        val_acc = sum(1 for p, (_, y) in zip(preds.tolist(), val) if p == y) / len(val)
        history.append(EpochStats(epoch, mean_loss, val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best = (weights.copy(), bias.copy())
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model = LinearModel.zeros(n_class)
    model.weights[:, list(columns)] = best[0].T
    model.bias = best[1]
    return model, history


def predict(model: LinearModel, text: str) -> np.ndarray:
    """Class probabilities: softmax(weights . featurize(text) + bias)."""
    return softmax(_logits(model.weights.T, model.bias, *_padded([featurize(text)]))[0])


def evaluate(model: LinearModel, data: list[tuple[str, int]]) -> float:
    """Fraction of examples whose argmax prediction matches the label.
    Argmax ties break toward the lowest class index."""
    if not data:
        raise DomainError("empty evaluation set")
    ids, counts = _padded([featurize(text) for text, _ in data])
    preds = _logits(model.weights.T, model.bias, ids, counts).argmax(axis=1)
    return sum(1 for p, (_, y) in zip(preds.tolist(), data) if p == y) / len(data)


_CHECKPOINT_VERSION = 1


def save_model(model: LinearModel, path):
    """Checkpoint: compressed npz with version, n_class, weights, bias."""
    # write through a handle so numpy keeps the caller's extension as-is
    with open(path, "wb") as f:
        np.savez_compressed(
            f,
            version=np.int64(_CHECKPOINT_VERSION),
            n_class=np.int64(model.n_class),
            weights=model.weights,
            bias=model.bias,
        )


def load_model(path) -> LinearModel:
    """Read a save_model checkpoint. A file that is not an npz archive, a
    missing or unreadable key, n_class below 2, a weights or bias shape that
    does not match n_class and N_BUCKETS, or a non-finite value raises
    DataError."""
    try:
        with np.load(path) as data:
            missing = [k for k in ("version", "n_class", "weights", "bias") if k not in data.files]
            if missing:
                raise DataError(f"checkpoint {path}: missing {', '.join(missing)}")
            version, n_class = int(data["version"]), int(data["n_class"])
            weights, bias = data["weights"], data["bias"]
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
    return LinearModel(weights, bias, n_class)
