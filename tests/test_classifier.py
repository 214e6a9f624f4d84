import random

import numpy as np
import pytest

from softaug.classifier import (
    LinearModel,
    N_BUCKETS,
    TrainConfig,
    evaluate,
    featurize,
    fnv1a64,
    load_model,
    predict,
    save_model,
    train,
)
from softaug.errors import DataError, DomainError
from softaug.labels import smooth_label
from softaug.policy import AugmentedExample


def hard_examples(pairs):
    return [
        AugmentedExample(text, smooth_label(y, 2, 0.0), "original", i)
        for i, (text, y) in enumerate(pairs)
    ]


# disjoint vocabularies: a linear model must separate these
TOY_TRAIN = [(f"pos{i} pos{(i + 1) % 10} pos{(i + 2) % 10}", 1) for i in range(10)] + [
    (f"neg{i} neg{(i + 1) % 10} neg{(i + 2) % 10}", 0) for i in range(10)
]
TOY_VAL = [("pos0 pos1", 1), ("neg0 neg1", 0), ("pos5 pos6", 1), ("neg5 neg6", 0)]


class TestFeaturize:
    def test_ngram_counts(self):
        feats = featurize("a b")
        assert len(feats) == 3  # "a", "b", "a_b"
        assert sum(feats.values()) == 3.0

    def test_empty_text(self):
        assert featurize("") == {}

    def test_deterministic(self):
        text = "the movie was great"
        assert featurize(text) == featurize(text)

    def test_lowercased(self):
        assert featurize("Movie") == featurize("movie")

    def test_buckets_in_range(self):
        feats = featurize("some words for hashing into buckets here")
        assert all(0 <= idx < N_BUCKETS for idx in feats)

    def test_fnv1a64_reference_values(self):
        # published FNV-1a 64 test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


class TestPredict:
    def test_zero_model_uniform(self):
        model = LinearModel.zeros(4)
        np.testing.assert_allclose(predict(model, "anything at all"), np.full(4, 0.25))

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.normal(size=(3, N_BUCKETS)), rng.normal(size=3), 3)
        probs = predict(model, "the plot was thin")
        assert abs(probs.sum() - 1.0) <= 1e-9 and (probs >= 0).all()


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        model, _ = train(
            hard_examples(TOY_TRAIN), TOY_VAL, 2, TrainConfig(), random.Random(0)
        )
        assert evaluate(model, TOY_TRAIN) == 1.0
        for text, y in TOY_TRAIN:
            assert int(np.argmax(predict(model, text))) == y

    def test_patience_one_constant_val_stops_after_two_epochs(self):
        # all-one-class training and validation: the zero-init model already
        # predicts class 0 everywhere, so val accuracy never improves again
        pairs = [(f"tok{i} tok{i + 1}", 0) for i in range(12)]
        val = [("tok0 tok1", 0), ("tok3 tok4", 0)]
        examples = hard_examples(pairs)
        cfg = TrainConfig(patience=1, max_epochs=10)
        _, history = train(examples, val, 2, cfg, random.Random(0))
        assert len(history) == 2

    def test_identical_seeds_identical_histories(self):
        cfg = TrainConfig()
        _, h1 = train(hard_examples(TOY_TRAIN), TOY_VAL, 2, cfg, random.Random(5))
        _, h2 = train(hard_examples(TOY_TRAIN), TOY_VAL, 2, cfg, random.Random(5))
        assert h1 == h2

    def test_loss_non_increasing_on_separable_set(self):
        _, history = train(
            hard_examples(TOY_TRAIN), TOY_VAL, 2, TrainConfig(), random.Random(1)
        )
        losses = [h.train_loss for h in history]
        assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))

    def test_returned_model_is_best_epoch(self):
        model, history = train(
            hard_examples(TOY_TRAIN), TOY_VAL, 2, TrainConfig(), random.Random(2)
        )
        assert evaluate(model, TOY_VAL) == max(h.val_accuracy for h in history)

    def test_empty_inputs_rejected(self):
        with pytest.raises(DomainError):
            train([], TOY_VAL, 2, TrainConfig(), random.Random(0))
        with pytest.raises(DomainError):
            train(hard_examples(TOY_TRAIN), [], 2, TrainConfig(), random.Random(0))

    def test_label_dimension_mismatch(self):
        bad = [AugmentedExample("a b", smooth_label(0, 3, 0.0), "original", 0)]
        with pytest.raises(DomainError):
            train(bad, TOY_VAL, 2, TrainConfig(), random.Random(0))

    def test_config_invariants(self):
        with pytest.raises(DomainError):
            TrainConfig(patience=11, max_epochs=10)
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.0)


class TestEvaluate:
    def test_always_class_zero(self):
        model = LinearModel.zeros(2)  # argmax ties break to class 0
        data = [("x y", 0), ("z w", 0)]
        assert evaluate(model, data) == 1.0

    def test_half_and_half(self):
        model = LinearModel.zeros(2)
        data = [("x", 0), ("y", 1), ("z", 0), ("w", 1)]
        assert evaluate(model, data) == 0.5

    def test_random_model_is_chance_level(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(200)]
        data = [
            (" ".join(rng.choice(words, size=8)), i % 2) for i in range(1000)
        ]
        accs = []
        for _ in range(50):
            model = LinearModel(
                rng.normal(size=(2, N_BUCKETS)) * 0.01, rng.normal(size=2) * 0.01, 2
            )
            accs.append(evaluate(model, data))
        assert 0.46 <= sum(accs) / len(accs) <= 0.54

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            evaluate(LinearModel.zeros(2), [])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model, _ = train(
            hard_examples(TOY_TRAIN), TOY_VAL, 2, TrainConfig(), random.Random(0)
        )
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_class == 2
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.bias, model.bias)
        for text, _ in TOY_TRAIN[:3]:
            np.testing.assert_array_equal(predict(loaded, text), predict(model, text))

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda a: a.pop("bias"), "missing bias"),
            (lambda a: a.update(weights=np.zeros((2, 10))), "do not fit"),
            (lambda a: a.update(weights=np.zeros((3, N_BUCKETS))), "do not fit"),
            (lambda a: a.update(bias=np.zeros(3)), "do not fit"),
            (lambda a: a["weights"].__setitem__((1, 5), np.nan), "non-finite"),
            (lambda a: a["bias"].__setitem__(0, np.inf), "non-finite"),
            (lambda a: a.update(n_class=np.int64(1), weights=np.zeros((1, N_BUCKETS)),
                                bias=np.zeros(1)), "at least 2"),
            (lambda a: a.update(n_class=np.zeros(2)), "not a readable"),
            (lambda a: a.update(weights=np.full((2, N_BUCKETS), "w")), "not a readable"),
        ],
    )
    def test_malformed_checkpoint_rejected(self, tmp_path, change, message):
        arrays = {
            "version": np.int64(1),
            "n_class": np.int64(2),
            "weights": np.zeros((2, N_BUCKETS)),
            "bias": np.zeros(2),
        }
        change(arrays)
        path = tmp_path / "model.npz"
        np.savez_compressed(path, **arrays)
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "content",
        [b"", b"weights\n", b"PK\x03\x04truncated"],
        ids=["empty", "text", "truncated-zip"],
    )
    def test_non_archive_rejected(self, tmp_path, content):
        path = tmp_path / "model.npz"
        path.write_bytes(content)
        with pytest.raises(DataError, match="not a readable"):
            load_model(path)

    def test_plain_npy_rejected(self, tmp_path):
        path = tmp_path / "model.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(DataError, match="not a readable"):
            load_model(path)
