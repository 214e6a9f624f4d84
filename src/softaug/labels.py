"""Soft labels: smoothing, soft-target cross entropy, and its gradient.

A soft label is a 1-D float array of per-class probabilities (non-negative,
summing to 1 within 1e-9). Gradients are taken with respect to logits, i.e.
through a softmax, since the classifier produces logits.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "smooth_label",
    "soft_cross_entropy",
    "soft_ce_gradient",
    "softmax",
    "is_soft_label",
]

_LOG_FLOOR = 1e-12  # clamp for log() so zero predictions stay finite


def smooth_label(y: int, n_class: int, epsilon: float) -> np.ndarray:
    """Smoothed one-hot: true class gets (1-eps) + eps/n, others eps/n."""
    if n_class < 2:
        raise DomainError(f"n_class must be >= 2, got {n_class}")
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must be in [0, 1), got {epsilon}")
    if not 0 <= y < n_class:
        raise DomainError(f"class index {y} out of range [0, {n_class})")
    probs = np.full(n_class, epsilon / n_class)
    probs[y] = (1.0 - epsilon) + epsilon / n_class
    return probs


def soft_cross_entropy(pred: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """-sum(target * log(pred)) over the class axis, with pred clamped to
    [1e-12, 1]: a float for one label, one loss per row for a batch."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise DomainError(f"shape mismatch: {pred.shape} vs {target.shape}")
    loss = -(target * np.log(np.clip(pred, _LOG_FLOOR, 1.0))).sum(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one distribution per row of a batch."""
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def soft_ce_gradient(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of soft_cross_entropy(softmax(logits), target) w.r.t. logits."""
    logits = np.asarray(logits, dtype=float)
    target = np.asarray(target, dtype=float)
    if logits.shape != target.shape:
        raise DomainError(f"shape mismatch: {logits.shape} vs {target.shape}")
    return softmax(logits) - target


def is_soft_label(probs: np.ndarray, tol: float = 1e-9) -> bool:
    probs = np.asarray(probs, dtype=float)
    return bool(probs.ndim == 1 and (probs >= 0).all() and abs(probs.sum() - 1.0) <= tol)
