import functools
import hashlib
import random
import tempfile
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

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
    load_model,
    predict,
    save_model,
    train,
    train_runs,
)
from softaug.datasets import make_synthetic_reviews
from softaug.errors import DataError, DomainError, TrainingError
from softaug.harness import ExperimentConfig, _fixed_policy, seed_splits
from softaug.labels import smooth_label, soft_ce_gradient, soft_cross_entropy, softmax
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
    st.text(st.characters(max_codepoint=127), max_size=20),  # every ASCII separator
)


class TestIndex:
    def test_vector_hasher_reference_values(self):
        # published FNV-1a 64 test vectors as spans (start, length) of b"a"
        buf = np.frombuffer(b"a", np.uint8)
        states = classifier._fnv1a64_spans(
            np.full(2, fnv1a64(b""), np.uint64), buf, np.array([0, 0]), np.array([0, 1])
        )
        assert states.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C]
        # a zero-length span inside a longer buffer hashes no byte
        buf = np.frombuffer(b"xay", np.uint8)
        states = classifier._fnv1a64_spans(
            np.full(3, fnv1a64(b""), np.uint64), buf, np.array([1, 1, 0]), np.array([0, 1, 3])
        )
        assert states.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, fnv1a64(b"xay")]

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=6), few_buckets=st.booleans())
    @example(texts=["", " \t"], few_buckets=False)
    @example(texts=["İx a\x00b c\x00 " + "é" * 40, "İx c\x00"], few_buckets=True)
    # every separator str.split splits on beyond ASCII space, tab and newline
    @example(
        texts=["a\x85b\xa0c\u1680d\u2000e\u2028f", "g\u2029h\u202fi\u205fj\u3000k",
               "l\x1cm\x1dn\x1eo\x1fp"],
        few_buckets=False,
    )
    # repeated texts, and texts that differ only in case
    @example(texts=["A b", "a b", "", "a b", "b"], few_buckets=True)
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

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(TEXTS, min_size=1, max_size=6), kept=st.sets(st.integers(0, 15)),
        few_buckets=st.booleans(), repeat=st.booleans(),
    )
    @example(texts=["a b", "c"], kept=set(), few_buckets=True, repeat=False)
    @example(texts=["A b", "a b", "b a b"], kept={3, 5, 8, 13}, few_buckets=True, repeat=True)
    def test_filter_drops_unkept_buckets(self, texts, kept, few_buckets, repeat):
        # a bucket is kept by its residue mod 16, which with 16 buckets is the
        # bucket itself; a repeated text takes the gathered path, a batch of
        # distinct texts the rows as laid out
        texts = texts + texts[:1] * repeat
        with pytest.MonkeyPatch.context() as mp:
            if few_buckets:
                mp.setattr(classifier, "N_BUCKETS", 16)
            # position 0 for a kept bucket, 1 (not below held = 1) for the rest
            pos = (~np.isin(np.arange(classifier.N_BUCKETS) % 16, sorted(kept))).astype(np.uint16)
            all_ids, all_counts = classifier._index(texts)
            ids, counts = classifier._index(texts, pos, 1)
        rows = [
            [(i, c) for i, c in zip(row_ids, row_counts) if c and i % 16 in kept]
            for row_ids, row_counts in zip(all_ids.tolist(), all_counts.tolist())
        ]
        width = max(map(len, rows))
        assert ids.shape == counts.shape == (len(texts), width)
        assert ids.dtype == np.intp and counts.dtype == float
        for row, pairs in enumerate(rows):
            padding = [(0, 0.0)] * (width - len(pairs))
            assert list(zip(ids[row].tolist(), counts[row].tolist())) == pairs + padding

    def test_long_token_memory(self):
        # memory grows with the batch's bytes (about 0.5 MiB peak here), not
        # with its keys times its longest token (~2000 x 5000 bytes here)
        texts = [f"w{i} w{i + 1}" for i in range(1000)] + ["w0 " + "x" * 5000]
        classifier._index(texts[:2])
        tracemalloc.start()
        try:
            classifier._index(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestPredict:
    def test_zero_model_uniform(self):
        model = zero_model(4)
        np.testing.assert_allclose(predict(model, "anything at all"), np.full(4, 0.25))

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = from_dense(rng.normal(size=(3, N_BUCKETS)), rng.normal(size=3))
        probs = predict(model, "the plot was thin")
        assert abs(probs.sum() - 1.0) <= 1e-9 and (probs >= 0).all()

    def test_memory_peak(self):
        # the text's buckets are searched in the model's: no table of
        # N_BUCKETS positions (1 MiB) and no copy of the weights (290 KiB here)
        rng = np.random.default_rng(0)
        buckets = np.sort(rng.choice(N_BUCKETS, 9286, replace=False))
        model = LinearModel(buckets, rng.normal(size=(4, len(buckets))), rng.normal(size=4))
        text = "the plot was thin but the cast was great"
        predict(model, text)
        tracemalloc.start()
        try:
            predict(model, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10


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


def loop_logits(weights, bias, feats):
    """Reference logits of dense `weights` (one column per bucket): the bias
    plus each feature's term, one at a time in the feature map's order."""
    z = bias.copy()
    for idx, count in feats.items():
        z += weights[:, idx] * count
    return z


def zero_model(n_class):
    """A model that holds no bucket, so every logit is its zero bias."""
    return LinearModel(np.zeros(0, np.int64), np.zeros((n_class, 0)), np.zeros(n_class))


def from_dense(weights, bias):
    """The model holding the columns of dense `weights` (one per bucket) in
    which some class's weight has a set bit."""
    held = np.flatnonzero(weights.view(np.uint64).any(axis=0))
    return LinearModel(held, weights[:, held], bias)


def dense(model):
    """The model's weights scattered into classifier.N_BUCKETS columns (read
    per call, so a monkeypatch applies), +0.0 in every bucket it lacks."""
    weights = np.zeros((model.n_class, classifier.N_BUCKETS))
    weights[:, model.buckets] = model.weights
    return weights


def assert_same_model(a, b):
    """Identical buckets, weights and bias: dtype, shape and bytes."""
    for name in ("buckets", "weights", "bias"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def dense_train(train_examples, val, n_class, cfg, rng, batched=False):
    """Reference for `train`: the per-feature loop over dense
    (n_class, 2^18) weights, returning the best (weights, bias) and the
    history. With batched=True every example of a batch is
    scored with the pre-batch weights, and the steps then subtract example
    by example and feature by feature (np.add.at's order): `train` must
    match it. With batched=False each example is scored after its
    batch-mates' steps (the per-example rule), which `train` matches at
    batch_size=1. The gradient is labels.soft_ce_gradient, the one that
    criterion 6 checks against finite differences."""
    feats = [scalar_featurize(ex.text) for ex in train_examples]
    targets = [np.asarray(ex.soft_label, dtype=float) for ex in train_examples]
    val_feats = [(scalar_featurize(text), y) for text, y in val]
    weights, bias = np.zeros((n_class, classifier.N_BUCKETS)), np.zeros(n_class)
    best, best_acc, stale, history = (weights.copy(), bias.copy()), -1.0, 0, []
    order = list(range(len(train_examples)))
    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(order)
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scale = cfg.learning_rate / len(batch)
            bias_grad = np.zeros(n_class)
            pre = [loop_logits(weights, bias, feats[i]) for i in batch] if batched else []
            for k, i in enumerate(batch):
                logits = pre[k] if batched else loop_logits(weights, bias, feats[i])
                loss_sum += soft_cross_entropy(softmax(logits), targets[i])
                g = soft_ce_gradient(logits, targets[i])
                bias_grad += g
                for idx, count in feats[i].items():
                    weights[:, idx] -= scale * count * g
            bias -= scale * bias_grad
        mean_loss = loss_sum / len(order)
        correct = sum(1 for f, y in val_feats if int(np.argmax(loop_logits(weights, bias, f))) == y)
        history.append((epoch, mean_loss, correct / len(val_feats)))
        if history[-1][2] > best_acc:
            best, best_acc, stale = (weights.copy(), bias.copy()), history[-1][2], 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best, history


def assert_same_as(examples, val, n_class, cfg, seed, batched):
    model, history = train(examples, val, n_class, cfg, random.Random(seed))
    assert_matches_dense(model, history, examples, val, n_class, cfg, seed, batched)


def assert_matches_dense(model, history, examples, val, n_class, cfg, seed, batched):
    (ref_weights, ref_bias), ref_history = dense_train(
        examples, val, n_class, cfg, random.Random(seed), batched
    )
    assert [(h.epoch, h.val_accuracy) for h in history] == [(e, a) for e, _, a in ref_history]
    for h, (_, loss, _) in zip(history, ref_history):
        assert h.train_loss == pytest.approx(loss, rel=1e-9, abs=0.0)
    for text in [ex.text for ex in examples] + [text for text, _ in val]:
        ref_probs = softmax(loop_logits(ref_weights, ref_bias, scalar_featurize(text)))
        assert int(np.argmax(predict(model, text))) == int(np.argmax(ref_probs))
    # the same sums in the same order: equal to the last bit
    np.testing.assert_array_equal(dense(model), ref_weights)
    np.testing.assert_array_equal(model.bias, ref_bias)


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
        weights = dense(model)
        assert not weights[:, ~seen].any()
        assert weights[:, seen].any()

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
    run's history, model and rng end state; each run also equals the
    batched dense reference."""
    rngs = [random.Random(seed) for seed in seeds]
    fits = train_runs(runs, val, n_class, cfg, rngs)
    for run, seed, rng, (model, history) in zip(runs, seeds, rngs, fits):
        solo_rng = random.Random(seed)
        solo_model, solo_history = train(run, val, n_class, cfg, solo_rng)
        assert history == solo_history
        assert_same_model(model, solo_model)
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
    """sha256 of a model's weights, scattered into N_BUCKETS columns, and
    bias bytes and its history's (epoch, train_loss, val_accuracy) doubles."""
    stats = np.array([(h.epoch, h.train_loss, h.val_accuracy) for h in history])
    return hashlib.sha256(dense(model).tobytes() + model.bias.tobytes() + stats.tobytes()).hexdigest()


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
        fits = train_runs(runs, val, data.n_class, TrainConfig(), rngs)
        assert [model_digest(*fit) for fit in fits] == self.RUNS


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

    def test_each_run_holds_its_own_buckets(self):
        # the call maps every run's and the val split's buckets to columns,
        # and pads rows with bucket 0; a run's model holds only the buckets
        # its own rows stepped, as sorted int64 ids, each with a set bit
        examples, val = golden_fixture()
        runs = [examples[:10], examples[10:20], examples[20:]]
        rngs = [random.Random(seed) for seed in range(3)]
        fits = train_runs(runs, val, 3, TestTrainSemantics.GOLDEN_CFG, rngs)
        rows = [scalar_featurize(text) for text in [ex.text for ex in examples] + [t for t, _ in val]]
        assert 0 not in set().union(*rows) and len({len(row) for row in rows}) > 1
        for run, (model, _) in zip(runs, fits):
            own = set().union(*(scalar_featurize(ex.text) for ex in run))
            assert model.buckets.dtype == np.int64
            assert model.buckets.tolist() == sorted(own)
            assert model.weights.shape == (3, len(own))
            assert model.weights.view(np.uint64).any(axis=0).all()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_column_map_equals_unique(self, data):
        # the call numbers its rows' buckets through the _positions table of
        # the buckets present: np.unique's sorted buckets and inverse, over
        # all N_BUCKETS buckets or 16 (collisions), with repeated texts
        texts = data.draw(st.lists(TEXTS, min_size=2, max_size=10))
        texts += texts[: data.draw(st.integers(0, len(texts)))]
        cut = data.draw(st.integers(1, len(texts) - 1))
        cuts = sorted(data.draw(st.sets(st.integers(1, cut), max_size=2)) | {0, cut})
        runs = [hard_examples((t, 0) for t in texts[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]
        val = [(t, 1) for t in texts[cut:]]
        tables, positions = [], classifier._positions

        def spy(buckets):
            tables.append((buckets, positions(buckets)))
            return tables[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            if data.draw(st.booleans()):
                mp.setattr(classifier, "N_BUCKETS", 16)
            mp.setattr(classifier, "_positions", spy)
            train_runs(runs, val, 2, TrainConfig(max_epochs=1, patience=1), [random.Random(0)] * len(runs))
            ids, _ = classifier._index([ex.text for run in runs for ex in run] + [t for t, _ in val])
        [(buckets, table)] = tables
        ref_buckets, inverse = np.unique(ids, return_inverse=True)
        assert (buckets.dtype, buckets.tolist()) == (ref_buckets.dtype, ref_buckets.tolist())
        np.testing.assert_array_equal(table[ids], inverse.reshape(ids.shape))

    def test_run_offsets_past_uint16(self):
        # the table is uint16 below 65,536 buckets, and the runs' blocks span
        # k * width columns past 65,535: the offsets must not wrap
        rng = random.Random(0)
        runs = [
            hard_examples((" ".join(f"w{rng.randrange(10**6)}" for _ in range(8)), i % 2) for i in range(300))
            for _ in range(4)
        ]
        val = [(ex.text, i % 2) for i, ex in enumerate(runs[0][:20])]
        width = len(np.unique(classifier._index([ex.text for run in runs for ex in run])[0]))
        assert width < 65_536 < len(runs) * width
        cfg = TrainConfig(max_epochs=2, patience=1)
        fits = train_runs(runs, val, 2, cfg, [random.Random(seed) for seed in range(4)])
        for seed, (run, (model, history)) in enumerate(zip(runs, fits)):
            solo_model, solo_history = train(run, val, 2, cfg, random.Random(seed))
            assert history == solo_history
            assert_same_model(model, solo_model)

    def test_first_failing_runs_error(self):
        # at this learning rate the logits overflow: run 0 fails at epoch 3,
        # run 1 at epoch 2, and separate trainings would raise run 0's error
        examples, val = golden_fixture()
        cfg = replace(TestTrainSemantics.GOLDEN_CFG, learning_rate=5e307)
        with pytest.raises(TrainingError) as solo:
            train(examples[:8], val, 3, cfg, random.Random(1))
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
            assert fits[r][1] == history
            assert_same_model(fits[r][0], model)

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


class TestEvaluate:
    def test_always_class_zero(self):
        model = zero_model(2)  # argmax ties break to class 0
        data = [("x y", 0), ("z w", 0)]
        assert evaluate(model, data) == 1.0

    def test_half_and_half(self):
        model = zero_model(2)
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
            model = from_dense(rng.normal(size=(2, N_BUCKETS)) * 0.01, rng.normal(size=2) * 0.01)
            accs.append(evaluate(model, data))
        assert 0.46 <= sum(accs) / len(accs) <= 0.54

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            evaluate(zero_model(2), [])

    @pytest.mark.parametrize("label", [2, -1, 7])
    def test_label_outside_classes_rejected(self, label):
        # a label the model cannot predict is an input error, not a miss
        data = [("x y", 0), ("z", label), ("w", 1)]
        with pytest.raises(DomainError, match=f"label {label} is outside \\[0, 2\\): the model has 2 classes"):
            evaluate(zero_model(2), data)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_feature_logits(self, data):
        # 16 buckets, so most keys collide; the model holds a random sorted
        # subset of them, bucket 0 and columns of +0.0 and -0.0 among them,
        # so most rows hold buckets it lacks, which must read +0.0 as in a
        # dense scatter; small integer weights make argmax ties common, and
        # they must break the same way
        n_class = data.draw(st.integers(2, 4))
        words = st.sampled_from(["a", "B", "c", "dd", "e", "Ff", "g", "h"])
        text = st.lists(words, max_size=7).map(" ".join)
        pairs = data.draw(
            st.lists(st.tuples(text, st.integers(0, n_class - 1)), min_size=0, max_size=10)
        )
        pairs.append(("", data.draw(st.integers(0, n_class - 1))))
        buckets = np.array(sorted(data.draw(st.sets(st.integers(0, 15)))), np.int64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            draw = lambda size: rng.integers(-2, 3, size=size).astype(float)
        else:
            draw = lambda size: rng.normal(scale=3.0, size=size)
        weights = draw((n_class, len(buckets)))
        zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=len(buckets)))
        weights[:, : len(zeros)] = zeros  # whole columns of signed zeros
        model = LinearModel(buckets, weights, draw(n_class))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier, "N_BUCKETS", 16)
            full = dense(model)
            ref = [loop_logits(full, model.bias, scalar_featurize(t)) for t, _ in pairs]
            recount = sum(int(np.argmax(z)) == y for z, (_, y) in zip(ref, pairs))
            assert evaluate(model, pairs) == recount / len(pairs)
            for z, (t, _) in zip(ref, pairs):
                assert predict(model, t).tobytes() == softmax(z).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_unfiltered_accuracy(self, data):
        # evaluate drops the keys in buckets the model does not hold as it
        # hashes them; the harness scores unfiltered rows with _accuracy. Both
        # must count the same hits, for a model holding none, some or all of
        # the 16 buckets, with repeated texts, signed-zero columns and ties
        n_class = data.draw(st.integers(2, 4))
        texts = data.draw(st.lists(TEXTS, min_size=1, max_size=8))
        texts += texts[: data.draw(st.integers(0, len(texts)))]
        y = data.draw(st.lists(st.integers(0, n_class - 1), min_size=len(texts), max_size=len(texts)))
        buckets = np.array(sorted(data.draw(st.sets(st.integers(0, 15)))), np.int64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            draw = lambda size: rng.integers(-2, 3, size=size).astype(float)
        else:
            draw = lambda size: rng.normal(scale=3.0, size=size)
        weights = draw((n_class, len(buckets)))
        zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=len(buckets)))
        weights[:, : len(zeros)] = zeros
        model = LinearModel(buckets, weights, draw(n_class))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier, "N_BUCKETS", 16)
            unfiltered = classifier._accuracy(model, *classifier._index(texts), np.array(y))
            assert evaluate(model, list(zip(texts, y))) == unfiltered

    @pytest.mark.parametrize("held", [[], ["good"]])
    def test_batch_without_a_held_key(self, held):
        # no key of the batch is in a bucket the model holds, so every
        # filtered row has width 0 and the bias decides: class 0
        buckets = np.array(sorted({b for word in held for b in featurize(word)}), np.int64)
        model = LinearModel(buckets, np.ones((2, len(buckets))), np.array([0.5, 0.0]))
        data = [("bad", 0), ("a dull film", 0), ("", 1), ("bad", 0)]
        texts, y = [text for text, _ in data], np.array([label for _, label in data])
        pos = classifier._positions(model.buckets)
        assert not set(featurize(" ".join(texts))) & set(buckets.tolist())
        ids, counts = classifier._index(texts, pos, len(buckets))
        assert ids.shape == counts.shape == (4, 0)
        assert evaluate(model, data) == 0.75 == classifier._accuracy(model, *classifier._index(texts), y)

    def test_unheld_buckets_score_zero(self):
        # a model that holds only "good": "bad" reads +0.0, so the bias decides
        buckets = np.array(sorted(featurize("good")))
        model = LinearModel(buckets, np.array([[-1.0], [1.0]]), np.array([0.5, 0.0]))
        assert evaluate(model, [("good", 1), ("bad", 0), ("", 0)]) == 1.0

    def test_full_width_model_matches_per_feature_logits(self):
        # the trained model, scored on every test sentence against its
        # scatter into 2^18 buckets
        data, *_ = surrogate_split()
        model, _ = surrogate_model()
        test, full = data.split("test"), dense(model)
        ref = [loop_logits(full, model.bias, scalar_featurize(t)) for t, _ in test]
        for z, (t, _) in zip(ref, test):
            assert predict(model, t).tobytes() == softmax(z).tobytes()
        recount = sum(int(np.argmax(z)) == y for z, (_, y) in zip(ref, test))
        assert evaluate(model, test) == recount / len(test)

    def test_terms_add_in_each_texts_own_order(self):
        # "x y" numbers x before y; "y x" must still add y's term first.
        # At 1e16 one unit is below the spacing of doubles, so the order of
        # the sums decides class 1's logit: (1e16 - 1e16) + 1 = 1, but
        # (1e16 + 1) - 1e16 = 0, which ties with class 0 and loses
        weights = np.zeros((2, N_BUCKETS))
        weights[1, next(iter(scalar_featurize("y")))] = -1e16
        weights[1, next(iter(scalar_featurize("x")))] = 1.0
        model = from_dense(weights, np.array([0.0, 1e16]))
        data = [("x y", 0), ("y x", 1)]
        assert [int(np.argmax(predict(model, t))) for t, _ in data] == [0, 1]
        assert evaluate(model, data) == 1.0

    def test_each_distinct_key_hashed_once(self, monkeypatch):
        # identical texts are indexed once, so their keys are hashed once
        hashed = spy_hashed_keys(monkeypatch)
        assert evaluate(zero_model(2), [("a b", 0), ("a b", 1)]) == 0.5
        assert sorted(hashed) == ["a", "a_b", "b"]

    def test_distinct_texts_hash_each_occurrence(self, monkeypatch):
        # distinct texts are hashed occurrence by occurrence: "a" once in each
        hashed = spy_hashed_keys(monkeypatch)
        assert evaluate(zero_model(2), [("a b", 0), ("a c", 1)]) == 0.5
        assert sorted(hashed) == ["a", "a", "a_b", "a_c", "b", "c"]


def spy_hashed_keys(monkeypatch):
    """The list of keys the span hasher is given, as it fills. A span is
    named by its start state: the offset basis starts a token, and a key's
    state continued over "_" starts a bigram."""
    hashed = []
    prefix = {fnv1a64(b""): ""}
    hash_spans = classifier._fnv1a64_spans

    def spy(h, buf, starts, lengths):
        states = hash_spans(h, buf, starts, lengths)
        for start, at, n, state in zip(h.tolist(), starts.tolist(), lengths.tolist(), states.tolist()):
            key = prefix[start] + buf[at : at + n].tobytes().decode()
            hashed.append(key)
            prefix[(state ^ ord("_")) * 0x100000001B3 % 2**64] = key + "_"
        return states

    monkeypatch.setattr(classifier, "_fnv1a64_spans", spy)
    return hashed


def checkpoint_arrays(**changes):
    """A valid version-2 checkpoint's arrays: two classes holding three
    buckets, with `changes` applied."""
    arrays = {
        "version": np.int64(2),
        "n_class": np.int64(2),
        "buckets": np.array([3, 7, 11]),
        "weights": np.zeros((2, 3)),
        "bias": np.zeros(2),
    }
    arrays.update(changes)
    return arrays


def assert_round_trip(model):
    """save_model then load_model gives back the model's buckets, weights
    and bias byte for byte, and its labels."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
    assert_same_model(loaded, model)
    assert (loaded.n_class, loaded.labels) == (model.n_class, model.labels)


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
        assert_same_model(loaded, model)
        for text, _ in TOY_TRAIN[:3]:
            np.testing.assert_array_equal(predict(loaded, text), predict(model, text))

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda a: a.pop("bias"), "missing bias"),
            (lambda a: a.update(weights=np.zeros((2, 10))), "do not fit"),
            (lambda a: a.update(weights=np.zeros((3, 3))), "do not fit"),
            (lambda a: a.update(bias=np.zeros(3)), "do not fit"),
            (lambda a: a["weights"].__setitem__((1, 2), np.nan), "non-finite"),
            (lambda a: a["bias"].__setitem__(0, np.inf), "non-finite"),
            (lambda a: a.update(n_class=np.int64(1), weights=np.zeros((1, 3)),
                                bias=np.zeros(1)), "at least 2"),
            (lambda a: a.update(n_class=np.zeros(2)), "not a readable"),
            (lambda a: a.update(weights=np.full((2, 3), "w")), "not a readable"),
            (lambda a: a.update(labels=np.array(["neg"])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array(["neg", "pos", "mixed"])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array(["neg", "neg"])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array([0, 1])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array([["neg", "pos"]])), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array("neg")), "not 2 distinct names"),
            (lambda a: a.update(labels=np.array(["neg", None], dtype=object)), "not a readable"),
            (lambda a: a.update(buckets=np.array([7, 3, 11])), "buckets"),
            (lambda a: a.update(buckets=np.array([3, 3, 11])), "buckets"),
            (lambda a: a.update(buckets=np.array([-1, 3, 11])), "buckets"),
            (lambda a: a.update(buckets=np.array([3, 7, N_BUCKETS])), "buckets"),
            (lambda a: a.update(buckets=np.array([7, 3, 11], dtype=np.uint64)), "buckets"),
            (lambda a: a.update(buckets=np.array([3.0, 7.0, 11.0])), "buckets"),
            (lambda a: a.update(buckets=np.array([[3, 7, 11]])), "buckets"),
            (lambda a: a.update(buckets=np.array([True, False, True])), "buckets"),
            (lambda a: a.update(weights=np.zeros((2, 2))), "do not fit"),
            (lambda a: a.update(version=np.float64(1.7)), "version is a"),
            (lambda a: a.update(version=np.bool_(True)), "version is a"),
            (lambda a: a.update(version=np.array([2])), "version is a"),
            (lambda a: a.update(n_class=np.float64(2.9)), "n_class is a"),
            (lambda a: a.update(n_class=np.bool_(True)), "n_class is a"),
            (lambda a: a.update(weights=np.zeros((2, 3), dtype=np.float16)), "weights is a"),
            (lambda a: a.update(weights=np.zeros((2, 3), dtype=bool)), "weights is a"),
            (lambda a: a.update(weights=np.zeros((2, 3), dtype=np.float32)), "weights is a"),
            (lambda a: a.update(bias=np.zeros(2, dtype=np.complex128)), "bias is a"),
            (lambda a: a.update(bias=np.zeros(2, dtype=np.int64)), "bias is a"),
        ],
    )
    def test_malformed_checkpoint_rejected(self, tmp_path, change, message):
        arrays = checkpoint_arrays()
        change(arrays)
        path = tmp_path / "model.npz"
        np.savez(path, **arrays)
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_version_is_read_first(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, n_class=np.int64(2))
        with pytest.raises(DataError, match="missing version"):
            load_model(path)
        # a version-1 file holds no buckets; the version, not the key, is named
        np.savez_compressed(
            path, version=np.int64(1), n_class=np.int64(2),
            weights=np.zeros((2, N_BUCKETS)), bias=np.zeros(2),
        )
        with pytest.raises(DataError, match="unsupported checkpoint version 1; retrain"):
            load_model(path)
        np.savez(path, **checkpoint_arrays(version=np.int64(3)))
        with pytest.raises(DataError, match="unsupported checkpoint version 3"):
            load_model(path)

    def test_file_layout(self, tmp_path):
        model, _ = train(
            hard_examples(TOY_TRAIN), TOY_VAL, 2, TrainConfig(), random.Random(0)
        )
        assert_round_trip(model)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            assert sorted(data.files) == ["bias", "buckets", "n_class", "version", "weights"]
            assert (int(data["version"]), data["buckets"].dtype) == (2, np.int64)
            assert data["weights"].shape == (2, len(data["buckets"]))
        # stored, not deflated
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_exact(self, data):
        # models built by hand: any sorted buckets, columns of +0.0 included
        n_class = data.draw(st.integers(2, 4))
        buckets = sorted(data.draw(st.sets(st.integers(0, N_BUCKETS - 1), max_size=40)))
        values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
        column = st.lists(values, min_size=n_class, max_size=n_class)
        columns = data.draw(st.lists(column, min_size=len(buckets), max_size=len(buckets)))
        weights = np.array(columns).reshape(len(buckets), n_class).T.copy()
        bias = np.array(data.draw(column))
        assert_round_trip(LinearModel(np.array(buckets, np.int64), weights, bias))

    @pytest.mark.parametrize("fill", [None, -0.0, 1.5], ids=["no-bucket", "every-bucket-negative-zero",
                                                             "every-bucket"])
    def test_round_trip_at_the_extremes(self, fill):
        weights = np.zeros((3, N_BUCKETS))
        if fill is not None:
            weights[:] = fill
            weights[1, ::7] = -2.25
        model = from_dense(weights, np.zeros(3))
        model.labels = ["a", "b", "c"]
        assert_round_trip(model)

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        model, _ = train(
            hard_examples(TOY_TRAIN), TOY_VAL, 2, TrainConfig(), random.Random(0)
        )
        path = tmp_path / "model.npz"
        save_model(model, path)
        before = path.read_bytes()

        def interrupted(f, **arrays):
            f.write(b"PK\x03\x04partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", interrupted)
        with pytest.raises(OSError, match="No space"):
            save_model(zero_model(2), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        np.testing.assert_array_equal(load_model(path).weights, model.weights)

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
