import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaug.errors import DomainError
from softaug.labels import (
    is_soft_label,
    smooth_label,
    soft_ce_gradient,
    soft_cross_entropy,
    softmax,
)


class TestSmoothLabel:
    def test_binary_eps_01(self):
        np.testing.assert_allclose(smooth_label(0, 2, 0.1), [0.95, 0.05], atol=1e-12)

    def test_five_class_eps_03(self):
        expected = [0.06, 0.06, 0.76, 0.06, 0.06]
        np.testing.assert_allclose(smooth_label(2, 5, 0.3), expected, atol=1e-12)

    def test_returns_a_fresh_writable_array(self):
        # apply_policy freezes the arrays it shares; smooth_label's own stay the caller's
        a, b = smooth_label(1, 3, 0.1), smooth_label(1, 3, 0.1)
        assert a is not b and a.flags.writeable and b.flags.writeable
        a[0] = 0.5
        assert b[0] == 0.1 / 3

    def test_eps_zero_is_one_hot(self):
        for n in (2, 3, 7):
            for y in range(n):
                probs = smooth_label(y, n, 0.0)
                expected = np.zeros(n)
                expected[y] = 1.0
                np.testing.assert_array_equal(probs, expected)

    def test_argmax_preserved_and_valid(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(2, 10)
            y = rng.randrange(n)
            eps = rng.uniform(0, 0.999)
            probs = smooth_label(y, n, eps)
            assert is_soft_label(probs)
            assert int(np.argmax(probs)) == y

    @pytest.mark.parametrize("n,eps", [(1, 0.1), (2, 1.0), (2, -0.1)])
    def test_domain_errors(self, n, eps):
        with pytest.raises(DomainError):
            smooth_label(0, n, eps)


class TestSoftCrossEntropy:
    def test_perfect_prediction(self):
        one_hot = np.array([1.0, 0.0])
        assert soft_cross_entropy(one_hot, one_hot) <= 1e-11

    def test_uniform_vs_one_hot(self):
        loss = soft_cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_smoothed_target_arithmetic(self):
        loss = soft_cross_entropy(np.array([0.7, 0.3]), np.array([0.95, 0.05]))
        expected = -(0.95 * math.log(0.7) + 0.05 * math.log(0.3))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            soft_cross_entropy(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))

    @pytest.mark.parametrize("n_class", [2, 5, 11])
    def test_batch_gives_each_rows_loss(self, n_class):
        rng = np.random.default_rng(n_class)
        pred = rng.dirichlet(np.ones(n_class), size=50)
        target = rng.dirichlet(np.ones(n_class), size=50)
        losses = soft_cross_entropy(pred, target)
        assert losses.shape == (50,)
        assert losses.tolist() == [soft_cross_entropy(p, t) for p, t in zip(pred, target)]

    def test_zero_prediction_stays_finite(self):
        assert math.isfinite(soft_cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0])))


def finite_difference_gradient(logits, target, h=1e-5):
    grad = np.zeros_like(logits)
    for i in range(len(logits)):
        up, down = logits.copy(), logits.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            soft_cross_entropy(softmax(up), target)
            - soft_cross_entropy(softmax(down), target)
        ) / (2 * h)
    return grad


def one_row_softmax(logits):
    """The 1-D softmax as it was before softmax took batches."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


class TestSoftmax:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_each_row_matches_its_own_softmax(self, data):
        n_class = data.draw(st.integers(1, 20))
        logit = st.floats(-1e3, 1e3, allow_nan=False)
        rows = data.draw(st.lists(st.lists(logit, min_size=n_class, max_size=n_class),
                                  min_size=1, max_size=8))
        batch = softmax(np.array(rows))
        assert batch.shape == (len(rows), n_class)
        for row, probs in zip(rows, batch):
            assert probs.tobytes() == softmax(np.array(row)).tobytes()
            assert softmax(row).tobytes() == one_row_softmax(row).tobytes()


class TestSoftCeGradient:
    def test_symmetric_zero(self):
        np.testing.assert_array_equal(
            soft_ce_gradient(np.zeros(2), np.array([0.5, 0.5])), np.zeros(2)
        )

    def test_stationary_at_target(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=rng.integers(2, 8))
            grad = soft_ce_gradient(logits, softmax(logits))
            assert np.abs(grad).max() <= 1e-12

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            target = rng.dirichlet(np.ones(n))
            grad = soft_ce_gradient(rng.normal(size=n), target)
            assert abs(grad.sum()) <= 1e-9

    def test_matches_finite_differences(self):
        # central-difference oracle on 100 random (logits, target) pairs
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            logits = rng.normal(scale=2.0, size=n)
            target = rng.dirichlet(np.ones(n))
            analytic = soft_ce_gradient(logits, target)
            numeric = finite_difference_gradient(logits, target)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert rel.max() < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            soft_ce_gradient(np.zeros(3), np.array([0.5, 0.5]))
