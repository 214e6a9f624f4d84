import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaug import classifier
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
from softaug.labels import smooth_label, soft_cross_entropy, softmax
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


def loop_logits(model, feats):
    """Reference logits: the bias plus each feature's term, one at a time
    in featurize's order."""
    z = model.bias.copy()
    for idx, count in feats.items():
        z += model.weights[:, idx] * count
    return z


def copy_model(model):
    return LinearModel(model.weights.copy(), model.bias.copy(), model.n_class)


def dense_train(train_examples, val, n_class, cfg, rng):
    """Reference for `train`: the per-feature loop over the full
    (n_class, 2^18) model, which `train` must match."""
    feats = [featurize(ex.text) for ex in train_examples]
    targets = [np.asarray(ex.soft_label, dtype=float) for ex in train_examples]
    val_feats = [(featurize(text), y) for text, y in val]
    model = LinearModel.zeros(n_class)
    best, best_acc, stale, history = copy_model(model), -1.0, 0, []
    order = list(range(len(train_examples)))
    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(order)
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scale = cfg.learning_rate / len(batch)
            bias_grad = np.zeros(n_class)
            for i in batch:
                probs = softmax(loop_logits(model, feats[i]))
                loss_sum += soft_cross_entropy(probs, targets[i])
                g = probs - targets[i]
                bias_grad += g
                for idx, count in feats[i].items():
                    model.weights[:, idx] -= scale * count * g
            model.bias -= scale * bias_grad
        mean_loss = loss_sum / len(order)
        correct = sum(1 for f, y in val_feats if int(np.argmax(loop_logits(model, f))) == y)
        history.append((epoch, mean_loss, correct / len(val_feats)))
        if history[-1][2] > best_acc:
            best, best_acc, stale = copy_model(model), history[-1][2], 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best, history


def assert_same_training(examples, val, n_class, cfg, seed):
    model, history = train(examples, val, n_class, cfg, random.Random(seed))
    ref_model, ref_history = dense_train(examples, val, n_class, cfg, random.Random(seed))
    assert [(h.epoch, h.val_accuracy) for h in history] == [(e, a) for e, _, a in ref_history]
    for h, (_, loss, _) in zip(history, ref_history):
        assert h.train_loss == pytest.approx(loss, rel=1e-9, abs=0.0)
    for text in [ex.text for ex in examples] + [text for text, _ in val]:
        assert int(np.argmax(predict(model, text))) == int(np.argmax(predict(ref_model, text)))
    # the same sums in the same order: equal to the last bit
    np.testing.assert_array_equal(model.weights, ref_model.weights)
    np.testing.assert_array_equal(model.bias, ref_model.bias)


def golden_fixture():
    rng = random.Random(20261018)
    shared = [f"s{i}" for i in range(8)]

    def sentence(c):
        words = [f"c{c}w{i}" for i in range(6)] + shared
        return " ".join(rng.choice(words) for _ in range(rng.randint(2, 8)))

    examples = [
        AugmentedExample(sentence(i % 3), smooth_label(i % 3, 3, 0.1), "original", i)
        for i in range(30)
    ]
    val = [(sentence(i % 3), i % 3) for i in range(12)]
    return examples, val


class TestTrainSemantics:
    # recorded from the per-feature dense trainer (dense_train above)
    GOLDEN = [
        (1, 1.079339996068293, 0.6666666666666666),
        (2, 0.9578734065856591, 0.6666666666666666),
        (3, 0.8689008941047559, 0.75),
        (4, 0.795260982886801, 0.6666666666666666),
        (5, 0.7380702930776685, 0.6666666666666666),
        (6, 0.688855570712765, 0.6666666666666666),
    ]
    GOLDEN_CFG = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=12, patience=3)

    def test_golden_epoch_history(self):
        examples, val = golden_fixture()
        model, history = train(examples, val, 3, self.GOLDEN_CFG, random.Random(5))
        assert [(h.epoch, h.val_accuracy) for h in history] == [(e, a) for e, _, a in self.GOLDEN]
        for h, (_, loss, _) in zip(history, self.GOLDEN):
            assert h.train_loss == pytest.approx(loss, rel=1e-9, abs=0.0)
        assert evaluate(model, val) == 0.75

    def test_weights_zero_outside_seen_buckets(self):
        examples, val = golden_fixture()
        model, _ = train(examples, val, 3, self.GOLDEN_CFG, random.Random(5))
        seen = np.zeros(N_BUCKETS, dtype=bool)
        for text in [ex.text for ex in examples] + [text for text, _ in val]:
            seen[list(featurize(text))] = True
        assert not model.weights[:, ~seen].any()
        assert model.weights[:, seen].any()

    def test_matches_dense_trainer_on_golden_fixture(self):
        examples, val = golden_fixture()
        assert_same_training(examples, val, 3, self.GOLDEN_CFG, 5)

    @pytest.mark.parametrize("seed", range(3))
    def test_bucket_collisions_merge_like_featurize(self, monkeypatch, seed):
        # with 16 buckets most keys collide; a collision must add counts
        # into one column, exactly as featurize adds them into one bucket
        monkeypatch.setattr(classifier, "N_BUCKETS", 16)
        examples, val = golden_fixture()
        assert_same_training(examples, val, 3, self.GOLDEN_CFG, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_trainer(self, data):
        n_class = data.draw(st.integers(2, 4))
        words = st.sampled_from(["a", "B", "c", "dd", "e", "Ff", "g"])
        text = st.lists(words, max_size=6).map(" ".join)
        labeled = st.tuples(text, st.integers(0, n_class - 1))
        train_pairs = data.draw(st.lists(labeled, min_size=1, max_size=12))
        val = data.draw(st.lists(labeled, min_size=1, max_size=6))
        eps = data.draw(st.sampled_from([0.0, 0.1, 0.5]))
        examples = [
            AugmentedExample(t, smooth_label(y, n_class, eps), "original", i)
            for i, (t, y) in enumerate(train_pairs)
        ]
        max_epochs = data.draw(st.integers(1, 5))
        cfg = TrainConfig(
            learning_rate=data.draw(st.sampled_from([0.05, 0.5, 2.0])),
            batch_size=data.draw(st.integers(1, 5)),
            max_epochs=max_epochs,
            patience=data.draw(st.integers(1, max_epochs)),
        )
        assert_same_training(examples, val, n_class, cfg, data.draw(st.integers(0, 100)))


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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_feature_logits(self, data):
        # 16 buckets, so most keys collide; small integer weights, so argmax
        # ties are common and must break the same way
        n_class = data.draw(st.integers(2, 4))
        words = st.sampled_from(["a", "B", "c", "dd", "e", "Ff", "g", "h"])
        text = st.lists(words, max_size=7).map(" ".join)
        pairs = data.draw(
            st.lists(st.tuples(text, st.integers(0, n_class - 1)), min_size=1, max_size=10)
        )
        pairs.append(("", data.draw(st.integers(0, n_class - 1))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            draw = lambda size: rng.integers(-2, 3, size=size).astype(float)
        else:
            draw = lambda size: rng.normal(scale=3.0, size=size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier, "N_BUCKETS", 16)
            model = LinearModel(draw((n_class, 16)), draw(n_class), n_class)
            ref = [loop_logits(model, featurize(t)) for t, _ in pairs]
            recount = sum(int(np.argmax(z)) == y for z, (_, y) in zip(ref, pairs))
            assert evaluate(model, pairs) == recount / len(pairs)
            for z, (t, _) in zip(ref, pairs):
                assert predict(model, t).tobytes() == softmax(z).tobytes()


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
