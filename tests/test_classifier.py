import functools
import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softaug import classifier
from softaug.classifier import (
    LinearModel,
    N_BUCKETS,
    TrainConfig,
    evaluate,
    featurize,
    fit_accuracy,
    load_model,
    predict,
    save_model,
    train,
    train_runs,
)
from softaug.datasets import make_synthetic_reviews
from softaug.errors import DataError, DomainError, TrainingError
from softaug.harness import ExperimentConfig, _fixed_policy, seed_splits
from softaug.labels import smooth_label, soft_cross_entropy, softmax
from softaug.policy import AugmentedExample, apply_policy
from softaug.textops import load_bundled_lexicon


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

    def test_is_the_one_text_index_row(self):
        assert featurize("a b a") == scalar_featurize("a b a")
        assert list(featurize("b a b")) == list(scalar_featurize("b a b"))

    def test_fnv1a64_reference_values(self):
        # published FNV-1a 64 test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


# multi-byte UTF-8, "İ" (two code points lowercased), NUL inside and at the
# end of a token, and tokens over 64 bytes
TOKENS = st.one_of(
    st.text(st.sampled_from(["a", "B", "é", "İ", "日", "\x00", "_"]), min_size=1, max_size=4),
    st.text(st.sampled_from(["x", "é", "\x00"]), min_size=40, max_size=70),
)
TEXTS = st.one_of(
    st.lists(TOKENS, max_size=8).map(" ".join),
    st.text(max_size=20),
)


class TestIndex:
    def test_vector_hasher_reference_values(self):
        # published FNV-1a 64 test vectors; the empty row's padding is not hashed
        data = np.array([b"", b"a"]).view(np.uint8).reshape(2, 1)
        states = classifier._fnv1a64_rows(
            np.full(2, fnv1a64(b""), np.uint64), data, np.array([0, 1])
        )
        assert states.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C]

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=6), few_buckets=st.booleans())
    @example(texts=["", " \t"], few_buckets=False)
    @example(texts=["İx a\x00b c\x00 " + "é" * 40, "İx c\x00"], few_buckets=True)
    def test_rows_equal_featurize(self, texts, few_buckets):
        with pytest.MonkeyPatch.context() as mp:
            if few_buckets:
                mp.setattr(classifier, "N_BUCKETS", 16)
            ids, counts = classifier._index(texts)
            feats = [list(scalar_featurize(t).items()) for t in texts]
        width = max(map(len, feats))
        assert ids.shape == counts.shape == (len(texts), width)
        assert ids.dtype == np.intp and counts.dtype == float
        for row, pairs in enumerate(feats):
            padding = [(0, 0.0)] * (width - len(pairs))
            assert list(zip(ids[row].tolist(), counts[row].tolist())) == pairs + padding

    # sha256 of ids.tobytes() + counts.tobytes(), recorded with the per-key
    # dict indexer that the vectorized one replaced
    GOLDEN = {
        "train": "900ff05d8d3a786036580633eb5b78c216858d4ce97f5a526da13a83ea8e52d4",
        "test": "1005270516b4ac2ef3708ba696e91112f9be919981c09a7aa5094473a9463b9c",
        "softeda_fixed": "ca61d33014c4fc13f8bf383a09de4b7e6991a6eddb3868a5e41fb7680626ccd4",
    }

    def test_golden_rows(self):
        data = make_synthetic_reviews()
        cfg = ExperimentConfig()
        train_split, _ = seed_splits(data, cfg, 0)
        augmented = apply_policy(
            train_split, data.n_class, _fixed_policy("softeda_fixed", cfg.fixed),
            load_bundled_lexicon(), random.Random(0),
        )
        inputs = {
            "train": [text for text, _ in data.split("train")],
            "test": [text for text, _ in data.split("test")],
            "softeda_fixed": [ex.text for ex in augmented],
        }
        for name, texts in inputs.items():
            ids, counts = classifier._index(texts)
            assert hashlib.sha256(ids.tobytes() + counts.tobytes()).hexdigest() == self.GOLDEN[name]


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
        for name, value in [
            ("batch_size", 2.5), ("max_epochs", 2.5), ("patience", 1.5), ("batch_size", True),
            ("learning_rate", float("nan")), ("learning_rate", float("inf")),
            ("learning_rate", "x"), ("learning_rate", True), ("learning_rate", 10**400),
        ]:
            with pytest.raises(DomainError, match=name):
                TrainConfig(**{name: value})


def fnv1a64(data: bytes) -> int:
    """Reference FNV-1a 64 over raw bytes, one byte at a time."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % 2**64
    return h


def scalar_featurize(text):
    """Reference feature map, key by key: the lowercased whitespace tokens,
    then their bigrams joined with '_', each hashed with fnv1a64 into
    classifier.N_BUCKETS (read per call, so a monkeypatch applies) and
    counted in first-occurrence order."""
    tokens = text.lower().split()
    feats = {}
    for key in tokens + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]:
        idx = fnv1a64(key.encode("utf-8")) & (classifier.N_BUCKETS - 1)
        feats[idx] = feats.get(idx, 0.0) + 1.0
    return feats


def loop_logits(model, feats):
    """Reference logits: the bias plus each feature's term, one at a time
    in the feature map's order."""
    z = model.bias.copy()
    for idx, count in feats.items():
        z += model.weights[:, idx] * count
    return z


def copy_model(model):
    return LinearModel(model.weights.copy(), model.bias.copy(), model.n_class)


def dense_train(train_examples, val, n_class, cfg, rng, batched=False):
    """Reference for `train`: the per-feature loop over the full
    (n_class, 2^18) model. With batched=True every example of a batch is
    scored with the pre-batch weights, and the steps then subtract example
    by example and feature by feature (np.add.at's order): `train` must
    match it. With batched=False each example is scored after its
    batch-mates' steps (the per-example rule), which `train` matches at
    batch_size=1."""
    feats = [scalar_featurize(ex.text) for ex in train_examples]
    targets = [np.asarray(ex.soft_label, dtype=float) for ex in train_examples]
    val_feats = [(scalar_featurize(text), y) for text, y in val]
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
            pre = [softmax(loop_logits(model, feats[i])) for i in batch] if batched else []
            for k, i in enumerate(batch):
                probs = pre[k] if batched else softmax(loop_logits(model, feats[i]))
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


def assert_same_as(examples, val, n_class, cfg, seed, batched):
    model, history = train(examples, val, n_class, cfg, random.Random(seed))
    assert_matches_dense(model, history, examples, val, n_class, cfg, seed, batched)


def assert_matches_dense(model, history, examples, val, n_class, cfg, seed, batched):
    ref_model, ref_history = dense_train(
        examples, val, n_class, cfg, random.Random(seed), batched
    )
    assert [(h.epoch, h.val_accuracy) for h in history] == [(e, a) for e, _, a in ref_history]
    for h, (_, loss, _) in zip(history, ref_history):
        assert h.train_loss == pytest.approx(loss, rel=1e-9, abs=0.0)
    for text in [ex.text for ex in examples] + [text for text, _ in val]:
        assert int(np.argmax(predict(model, text))) == int(np.argmax(predict(ref_model, text)))
    # the same sums in the same order: equal to the last bit
    np.testing.assert_array_equal(model.weights, ref_model.weights)
    np.testing.assert_array_equal(model.bias, ref_model.bias)


def assert_same_training(examples, val, n_class, cfg, seed):
    """`train` equals the batched reference at cfg's batch size, and the
    per-example reference at batch size 1."""
    assert_same_as(examples, val, n_class, cfg, seed, batched=True)
    assert_same_as(examples, val, n_class, replace(cfg, batch_size=1), seed, batched=False)


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
    # recorded from the batched trainer, which dense_train(batched=True) matches
    GOLDEN = [
        (1, 1.0834704311449779, 0.6666666666666666),
        (2, 0.9623383649279773, 0.6666666666666666),
        (3, 0.8702429658019526, 0.75),
        (4, 0.7967684167742356, 0.6666666666666666),
        (5, 0.7395320222734139, 0.6666666666666666),
        (6, 0.687945840285863, 0.6666666666666666),
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
            seen[list(scalar_featurize(text))] = True
        assert not model.weights[:, ~seen].any()
        assert model.weights[:, seen].any()

    def test_matches_dense_trainer_on_golden_fixture(self):
        examples, val = golden_fixture()
        assert_same_training(examples, val, 3, self.GOLDEN_CFG, 5)

    @pytest.mark.parametrize("seed", range(3))
    def test_bucket_collisions_merge_like_featurize(self, monkeypatch, seed):
        # with 16 buckets most keys collide; a collision must add counts
        # into one column, exactly as scalar_featurize adds them into one bucket
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


def assert_runs_equal_separate_trainings(runs, val, n_class, cfg, seeds):
    """train_runs on `runs` equals one train call per run, bit for bit: each
    run's history, best weights and bias, and rng end state; each run also
    equals the batched dense reference."""
    rngs = [random.Random(seed) for seed in seeds]
    fits = train_runs(runs, val, n_class, cfg, rngs)
    for run, seed, rng, (buckets, weights, bias, history) in zip(runs, seeds, rngs, fits):
        solo_rng = random.Random(seed)
        solo_model, solo_history = train(run, val, n_class, cfg, solo_rng)
        model = LinearModel.zeros(n_class)
        model.weights[:, buckets] = weights
        model.bias = bias
        assert history == solo_history
        np.testing.assert_array_equal(model.weights, solo_model.weights)
        np.testing.assert_array_equal(model.bias, solo_model.bias)
        assert rng.getstate() == solo_rng.getstate()
        assert_matches_dense(model, history, run, val, n_class, cfg, seed, batched=True)
    return fits


@functools.lru_cache(maxsize=None)
def surrogate_split():
    """The bundled surrogate, its seed-0 (train, val) splits and the
    softeda_fixed policy of the default ExperimentConfig."""
    data = make_synthetic_reviews()
    cfg = ExperimentConfig()
    train_split, val = seed_splits(data, cfg, 0)
    return data, train_split, val, _fixed_policy("softeda_fixed", cfg.fixed)


def augment_split(rng):
    """The seed-0 train split augmented by softeda_fixed with `rng`."""
    data, train_split, _, policy = surrogate_split()
    return apply_policy(train_split, data.n_class, policy, load_bundled_lexicon(), rng)


@functools.lru_cache(maxsize=None)
def surrogate_model():
    """The softeda_fixed cell's training of seed 0: one rng augments, then
    shuffles, at the default TrainConfig."""
    data, _, val, _ = surrogate_split()
    rng = random.Random(0)
    return train(augment_split(rng), val, data.n_class, TrainConfig(), rng)


def model_digest(model, history):
    """sha256 of a model's weights and bias bytes and its history's
    (epoch, train_loss, val_accuracy) doubles."""
    stats = np.array([(h.epoch, h.train_loss, h.val_accuracy) for h in history])
    return hashlib.sha256(model.weights.tobytes() + model.bias.tobytes() + stats.tobytes()).hexdigest()


class TestWeightsGolden:
    # recorded with the (column, class) trainer that the class-major one replaced
    TRAIN = "8860505f3eca5a6da5631ede10105418e39b5dd55937be0994bcb8024e91d8c3"
    RUNS = [
        "f7a92ba2488755aed5aab2c2a0e8497be78f5335694dd32fd29ebc49cbc9549c",
        "417134cfa6d66661f4a37fd54614982dcff4c727fa4e33935078dc8265cc91a0",
        "a8e5aa13bb0535e92d2ce4ba8945965a3c4b5ab0ad1279bc9e2cfdf099ebaa72",
    ]

    def test_train(self):
        assert model_digest(*surrogate_model()) == self.TRAIN

    def test_train_runs(self):
        data, _, val, _ = surrogate_split()
        rngs = [random.Random(seed) for seed in (1, 2, 3)]
        runs = [augment_split(rng) for rng in rngs]
        digests = []
        for buckets, weights, bias, history in train_runs(runs, val, data.n_class, TrainConfig(), rngs):
            model = LinearModel.zeros(data.n_class)
            model.weights[:, buckets] = weights
            model.bias = bias
            digests.append(model_digest(model, history))
        assert digests == self.RUNS


class TestTrainRuns:
    def test_runs_stopping_at_different_epochs(self):
        examples, val = golden_fixture()
        empty = AugmentedExample("", smooth_label(1, 3, 0.1), "original", 99)
        runs = [examples, examples[:17], examples[10:29] + [empty]]
        cfg = replace(TestTrainSemantics.GOLDEN_CFG, patience=2)
        fits = assert_runs_equal_separate_trainings(runs, val, 3, cfg, [0, 0, 4])
        # the runs stop at three different epochs, and their last batches
        # hold 2, 1 and 4 rows, so the steps' batches are ragged
        assert sorted(len(history) for *_, history in fits) == [3, 4, 5]
        assert [len(run) % cfg.batch_size for run in runs] == [2, 1, 0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_separate_trainings(self, data):
        n_class = data.draw(st.integers(2, 4))
        words = st.sampled_from(["a", "B", "c", "dd", "e", "Ff", "g"])
        text = st.lists(words, max_size=6).map(" ".join)  # "" for an empty list
        labeled = st.tuples(text, st.integers(0, n_class - 1))
        eps = data.draw(st.sampled_from([0.0, 0.1, 0.5]))
        runs = [
            [
                AugmentedExample(t, smooth_label(y, n_class, eps), "original", i)
                for i, (t, y) in enumerate(pairs)
            ]
            for pairs in data.draw(st.lists(st.lists(labeled, min_size=1, max_size=12), min_size=1, max_size=4))
        ]
        val = data.draw(st.lists(labeled, min_size=1, max_size=6))
        max_epochs = data.draw(st.integers(1, 5))
        cfg = TrainConfig(
            learning_rate=data.draw(st.sampled_from([0.05, 0.5, 2.0])),
            batch_size=data.draw(st.integers(1, 14)),
            max_epochs=max_epochs,
            patience=data.draw(st.integers(1, max_epochs)),
        )
        seeds = data.draw(st.lists(st.integers(0, 100), min_size=len(runs), max_size=len(runs)))
        assert_runs_equal_separate_trainings(runs, val, n_class, cfg, seeds)

    def test_runs_share_one_column_map(self):
        examples, val = golden_fixture()
        runs = [examples[:10], examples[10:20], examples[20:]]
        rngs = [random.Random(seed) for seed in range(3)]
        fits = train_runs(runs, val, 3, TestTrainSemantics.GOLDEN_CFG, rngs)
        rows = [scalar_featurize(text) for text in [ex.text for ex in examples] + [t for t, _ in val]]
        # rows with fewer keys than the widest are padded with bucket 0
        padded = {0} if len({len(row) for row in rows}) > 1 else set()
        union = sorted(set().union(*rows) | padded)
        for run, (buckets, weights, *_) in zip(runs, fits):
            np.testing.assert_array_equal(buckets, union)
            own = set().union(*(scalar_featurize(ex.text) for ex in run))
            unused = ~np.isin(buckets, list(own))
            assert unused.any() and weights[:, ~unused].any()
            # exactly +0.0: no step, not even a signed zero, reached them
            assert not weights[:, unused].any()
            assert not np.signbit(weights[:, unused]).any()

    def test_first_failing_runs_error(self):
        # at this learning rate the logits overflow: run 0 fails at epoch 3,
        # run 1 at epoch 2, and separate trainings would raise run 0's error
        examples, val = golden_fixture()
        cfg = replace(TestTrainSemantics.GOLDEN_CFG, learning_rate=5e307)
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as solo:
            train(examples[:8], val, 3, cfg, random.Random(1))
        with np.errstate(all="ignore"):
            fits = train_runs([examples[:8]] * 2, val, 3, cfg, [random.Random(1), random.Random(0)])
        # each failed run reports its own error in its place
        assert all(isinstance(fit, TrainingError) for fit in fits)
        assert str(fits[0]) == str(solo.value) == "non-finite training loss at epoch 3"
        assert str(fits[1]) == "non-finite training loss at epoch 2"

    def test_failed_run_leaves_the_others_as_trained_alone(self):
        # a NaN target makes run 1's loss non-finite in its first epoch;
        # runs 0 and 2 train on, each as its own training would
        examples, val = golden_fixture()
        poisoned = [replace(examples[0], soft_label=np.full(3, np.nan))] + examples[1:12]
        runs = [examples[:10], poisoned, examples[12:]]
        cfg = TestTrainSemantics.GOLDEN_CFG
        fits = train_runs(runs, val, 3, cfg, [random.Random(seed) for seed in range(3)])
        assert str(fits[1]) == "non-finite training loss at epoch 1"
        for r in (0, 2):
            model, history = train(runs[r], val, 3, cfg, random.Random(r))
            buckets, weights, bias, fit_history = fits[r]
            assert fit_history == history
            np.testing.assert_array_equal(model.weights[:, buckets], weights)
            np.testing.assert_array_equal(model.bias, bias)

    def test_inputs_rejected(self):
        run = hard_examples(TOY_TRAIN)
        for runs, rngs in [([], []), ([run, []], [random.Random(0)] * 2), ([run], [])]:
            with pytest.raises(DomainError):
                train_runs(runs, TOY_VAL, 2, TrainConfig(), rngs)

    @pytest.mark.parametrize("label", [2, -1])
    def test_val_label_outside_classes_rejected(self, label):
        val = TOY_VAL + [("pos3 pos4", label)]
        with pytest.raises(DomainError, match=f"label {label} is outside"):
            train_runs([hard_examples(TOY_TRAIN)], val, 2, TrainConfig(), [random.Random(0)])


class TestFitAccuracy:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_evaluate_of_trained_model(self, data):
        # the test texts draw on words no training row holds, so some of
        # their buckets are outside every fit's columns
        n_class = data.draw(st.integers(2, 4))
        text = lambda words: st.lists(st.sampled_from(words), max_size=6).map(" ".join)
        seen, unseen = ["a", "B", "c", "dd", "e"], ["x", "Yy", "z"]
        labeled = lambda words: st.tuples(text(words), st.integers(0, n_class - 1))
        runs = [
            [AugmentedExample(t, smooth_label(y, n_class, 0.1), "original", i) for i, (t, y) in enumerate(pairs)]
            for pairs in data.draw(st.lists(st.lists(labeled(seen), min_size=1, max_size=10), min_size=1, max_size=3))
        ]
        val = data.draw(st.lists(labeled(seen), min_size=1, max_size=4))
        test = data.draw(st.lists(labeled(seen + unseen), min_size=1, max_size=10))
        cfg = TrainConfig(
            learning_rate=data.draw(st.sampled_from([0.05, 0.5, 2.0])),
            batch_size=data.draw(st.integers(1, 8)),
            max_epochs=3,
            patience=3,
        )
        fits = train_runs(runs, val, n_class, cfg, [random.Random(seed) for seed in range(len(runs))])
        ids, counts = classifier._index([t for t, _ in test])
        y = classifier._labels(test, n_class)
        for seed, (run, fit) in enumerate(zip(runs, fits)):
            model, _ = train(run, val, n_class, cfg, random.Random(seed))
            assert fit_accuracy(fit, ids, counts, y) == evaluate(model, test)

    def test_unheld_buckets_score_zero(self):
        # a model that holds only "good": "bad" reads +0.0, so the bias decides
        buckets = np.array(sorted(featurize("good")))
        fit = (buckets, np.array([[-1.0], [1.0]]), np.array([0.5, 0.0]), [])
        test = [("good", 1), ("bad", 0), ("", 0)]
        ids, counts = classifier._index([t for t, _ in test])
        assert fit_accuracy(fit, ids, counts, classifier._labels(test, 2)) == 1.0

    def test_failed_run_raises_its_error(self):
        with pytest.raises(TrainingError, match="at epoch 2"):
            fit_accuracy(TrainingError("non-finite training loss at epoch 2"), None, None, None)


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

    @pytest.mark.parametrize("label", [2, -1, 7])
    def test_label_outside_classes_rejected(self, label):
        # a label the model cannot predict is an input error, not a miss
        data = [("x y", 0), ("z", label), ("w", 1)]
        with pytest.raises(DomainError, match=f"label {label} is outside \\[0, 2\\): the model has 2 classes"):
            evaluate(LinearModel.zeros(2), data)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_feature_logits(self, data):
        # 16 buckets, so most keys collide; small integer weights, so argmax
        # ties are common and must break the same way
        n_class = data.draw(st.integers(2, 4))
        words = st.sampled_from(["a", "B", "c", "dd", "e", "Ff", "g", "h"])
        text = st.lists(words, max_size=7).map(" ".join)
        pairs = data.draw(
            st.lists(st.tuples(text, st.integers(0, n_class - 1)), min_size=0, max_size=10)
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
            ref = [loop_logits(model, scalar_featurize(t)) for t, _ in pairs]
            recount = sum(int(np.argmax(z)) == y for z, (_, y) in zip(ref, pairs))
            assert evaluate(model, pairs) == recount / len(pairs)
            for z, (t, _) in zip(ref, pairs):
                assert predict(model, t).tobytes() == softmax(z).tobytes()

    def test_full_width_model_matches_per_feature_logits(self):
        # the trained 2^18-bucket model, scored on every test sentence
        data, *_ = surrogate_split()
        model, _ = surrogate_model()
        test = data.split("test")
        ref = [loop_logits(model, scalar_featurize(t)) for t, _ in test]
        for z, (t, _) in zip(ref, test):
            assert predict(model, t).tobytes() == softmax(z).tobytes()
        recount = sum(int(np.argmax(z)) == y for z, (_, y) in zip(ref, test))
        assert evaluate(model, test) == recount / len(test)

    def test_terms_add_in_each_texts_own_order(self):
        # "x y" numbers x before y; "y x" must still add y's term first.
        # At 1e16 one unit is below the spacing of doubles, so the order of
        # the sums decides class 1's logit: (1e16 - 1e16) + 1 = 1, but
        # (1e16 + 1) - 1e16 = 0, which ties with class 0 and loses
        model = LinearModel.zeros(2)
        model.bias[1] = 1e16
        model.weights[1, next(iter(scalar_featurize("y")))] = -1e16
        model.weights[1, next(iter(scalar_featurize("x")))] = 1.0
        data = [("x y", 0), ("y x", 1)]
        assert [int(np.argmax(predict(model, t))) for t, _ in data] == [0, 1]
        assert evaluate(model, data) == 1.0

    def test_each_distinct_key_hashed_once(self, monkeypatch):
        # a hashed row is named by its start state: the offset basis starts a
        # token, and a key's state continued over "_" starts a bigram
        hashed = []
        prefix = {fnv1a64(b""): ""}
        hash_rows = classifier._fnv1a64_rows

        def spy(h, data, lengths):
            states = hash_rows(h, data, lengths)
            for start, row, n, state in zip(h.tolist(), data.tolist(), lengths.tolist(), states.tolist()):
                key = prefix[start] + bytes(row[:n]).decode()
                hashed.append(key)
                prefix[(state ^ ord("_")) * 0x100000001B3 % 2**64] = key + "_"
            return states

        monkeypatch.setattr(classifier, "_fnv1a64_rows", spy)
        assert evaluate(LinearModel.zeros(2), [("a b", 0), ("a b", 1)]) == 0.5
        assert sorted(hashed) == ["a", "a_b", "b"]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model, _ = train(
            hard_examples(TOY_TRAIN), TOY_VAL, 2, TrainConfig(), random.Random(0)
        )
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert load_model(path).labels is None
        model.labels = ["neg", "pos"]
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_class == 2
        assert loaded.labels == ["neg", "pos"]
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
            (lambda a: a.update(labels=np.array(["neg"])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array(["neg", "pos", "mixed"])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array(["neg", "neg"])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array([0, 1])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array([["neg", "pos"]])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array("neg")), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array(["neg", None], dtype=object)), "not a readable"),
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
