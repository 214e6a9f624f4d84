import hashlib
import itertools
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softaug.augment import PUNCTUATION_MARKS
from softaug.datasets import make_synthetic_reviews
from softaug.errors import DomainError, from_json
from softaug.labels import smooth_label
from softaug.policy import (
    _RANGES,
    AugmentationPolicy,
    PolicySpace,
    apply_policy,
    sample_policy,
)
from softaug.textops import load_bundled_lexicon, tokenize

LEX = load_bundled_lexicon()

BASELINE_POLICY = AugmentationPolicy(
    p_aug=1.0, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
    alpha_sr=0.1, alpha_ri=0.1, alpha_rs=0.1, alpha_rd=0.1,
    n_aug=2, eps_ori=0.0, eps_aug=0.1,
)

SENTENCES = [
    ("the movie was great and the acting was wonderful", 1),
    ("a terrible boring film with awful dialogue", 0),
    ("an excellent touching story", 1),
    ("the plot felt weak and predictable", 0),
]


def violations(**changes) -> list[str]:
    """The violations that building BASELINE_POLICY with `changes` raises."""
    with pytest.raises(DomainError) as e:
        replace(BASELINE_POLICY, **changes)
    assert str(e.value) == "invalid policy: " + "; ".join(e.value.violations)
    return e.value.violations


class TestValidatePolicy:
    def test_equal_probability_baseline_ok(self):
        # construction is the check: replace() builds it anew
        assert replace(BASELINE_POLICY) == BASELINE_POLICY

    def test_simplex_violation(self):
        assert any("sum = 2" in v for v in violations(p_sr=0.5, p_ri=0.5, p_rs=0.5, p_rd=0.5))

    def test_n_aug_boundary(self):
        assert any("n_aug" in v for v in violations(n_aug=0))
        # a bool is an int subclass, and JSON true would otherwise read as 1
        assert violations(n_aug=True) == ["n_aug: True must be an integer >= 1"]

    def test_multiple_violations_all_reported(self):
        assert len(violations(p_aug=1.5, alpha_sr=0.9, eps_aug=0.95)) == 3

    @pytest.mark.parametrize("field", ["p_aug", "p_sr", "alpha_rd", "n_aug", "eps_aug"])
    @pytest.mark.parametrize("value", ["x", None, [0.5], float("nan"), float("inf"), "0.5"])
    def test_non_numeric_field_is_a_violation(self, field, value):
        assert violations(**{field: value}) == [f"{field}: {value!r} is not a number"]

    def test_boolean_real_fields_are_violations(self):
        # a bool is a numbers.Real, and JSON true would otherwise read as 1.0
        assert violations(p_aug=True, eps_ori=False) == [
            "p_aug: True is not a number",
            "eps_ori: False is not a number",
        ]

    def test_non_numeric_field_does_not_hide_other_violations(self):
        assert violations(p_sr="x", eps_ori=0.7) == [
            "p_sr: 'x' is not a number",
            "eps_ori: 0.7 not in [0, 0.5]",
        ]

    def test_every_construction_path_is_checked(self):
        bad = dict(BASELINE_POLICY.to_dict(), eps_ori=0.7)
        for build in (
            lambda: AugmentationPolicy(**bad),
            lambda: from_json(AugmentationPolicy, bad, "policy"),
        ):
            with pytest.raises(DomainError, match=r"^invalid policy: eps_ori: 0.7 not in \[0, 0.5\]$"):
                build()


class TestSamplePolicy:
    def test_all_samples_valid(self):
        space = PolicySpace()
        rng = random.Random(0)
        for _ in range(10_000):
            sample_policy(space, rng)  # construction raises on an invalid draw

    def test_categorical_support(self):
        space = PolicySpace(n_aug_choices=(1, 2, 4, 8))
        rng = random.Random(1)
        assert {sample_policy(space, rng).n_aug for _ in range(2000)} == {1, 2, 4, 8}

    def test_simplex_component_means(self):
        # normalized i.i.d. weights are exchangeable: each mean ~ 0.25
        rng = random.Random(2)
        sums = np.zeros(4)
        n = 10_000
        for _ in range(n):
            p = sample_policy(PolicySpace(), rng)
            sums += [p.p_sr, p.p_ri, p.p_rs, p.p_rd]
        assert all(0.23 <= m <= 0.27 for m in sums / n)

    def test_degenerate_space_rejected(self):
        with pytest.raises(DomainError):
            PolicySpace(p_aug=(0.5, 0.5))
        with pytest.raises(DomainError):
            PolicySpace(n_aug_choices=())


class TestPolicySpaceBounds:
    @pytest.mark.parametrize("name", sorted(_RANGES))
    def test_bounds_within_policy_ranges(self, name):
        lo, hi = _RANGES[name]
        PolicySpace(**{name: (lo, hi)})  # the full range is a valid space
        for bounds in [(lo - 0.01, hi), (lo, hi + 0.01), (hi, lo)]:
            with pytest.raises(DomainError, match=name):
                PolicySpace(**{name: bounds})

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0), (0.5, 0.2), (0.1, float("inf"))])
    def test_weight_bounds_positive_and_finite(self, bounds):
        # a lower bound of 0 lets all four clamped weights be 0, and
        # renormalizing them divides by zero
        with pytest.raises(DomainError, match="weight"):
            PolicySpace(weight=bounds)

    @pytest.mark.parametrize("choices", [(0,), (1, -2), (2.5,), ("a",), (1, None), (True, 2)])
    def test_n_aug_choices_positive_integers(self, choices):
        with pytest.raises(DomainError, match="n_aug_choices"):
            PolicySpace(n_aug_choices=choices)

    def test_every_draw_valid_at_the_range_limits(self):
        space = PolicySpace(**_RANGES, weight=(1e-9, 2.0), n_aug_choices=(1, 16))
        rng = random.Random(3)
        for _ in range(2000):
            sample_policy(space, rng)  # construction raises on an invalid draw

    @pytest.mark.parametrize(
        "kwargs",
        [{"p_aug": (0, True)}, {"weight": (0.1, True)}, {"p_aug": ("0.1", 1.0)}, {"p_aug": (0.1,)},
         {"eps_aug": [0.0, 0.5, 0.7]}, {"n_aug_choices": 4}, {"n_aug_choices": "12"}],
        ids=["bool-hi", "bool-weight", "string-lo", "one-bound", "three-bounds", "int-choices", "string-choices"],
    )
    def test_constructor_checks_value_types(self, kwargs):
        # a space built in code is checked as one read from JSON is, at construction
        [(name, value)] = kwargs.items()
        with pytest.raises(DomainError, match=f"^{name}: {re.escape(repr(value))} "):
            PolicySpace(**kwargs)

    @pytest.mark.parametrize(
        "d",
        [
            {"p_aug": ["x", 1]},
            {"p_aug": [1]},
            {"p_aug": [0.1, 0.5, 0.9]},
            {"p_aug": 0.5},
            {"eps_aug": None},
            {"n_aug_choices": ["a"]},
            {"n_aug_choices": 4},
            {"p_aug": ["0.2", True]},
            {"p_aug": [0.2, True]},
            {"eps_aug": [0, float("inf")]},
        ],
    )
    def test_from_dict_rejects_malformed(self, d):
        # the constructor holds the check, so a space built in code fails as a JSON one does
        for build in (lambda: PolicySpace(**d), lambda: from_json(PolicySpace, d, "space")):
            with pytest.raises(DomainError, match=next(iter(d))):
                build()

    def test_from_dict_reads_lists(self):
        space = from_json(PolicySpace, {"p_aug": [0, 1], "n_aug_choices": [1, 3]}, "space")
        assert space.p_aug == (0.0, 1.0) and space.n_aug_choices == (1, 3)
        # stored as floats: a trial log prints 0.0, not 0, as with bounds read from JSON
        assert [type(b) for b in space.p_aug] == [float, float]
        assert PolicySpace(p_aug=(0, 1), n_aug_choices=[1, 3]) == space


class TestApplyPolicy:
    def test_p_aug_zero_originals_only(self):
        policy = replace(BASELINE_POLICY, p_aug=0.0, eps_ori=0.2)
        out = apply_policy(SENTENCES, 2, policy, LEX, random.Random(0))
        assert len(out) == len(SENTENCES)
        assert all(ex.provenance == "original" for ex in out)
        for ex, (text, y) in zip(out, SENTENCES):
            assert ex.text == text
            assert ex.soft_label[y] == pytest.approx(0.9)

    def test_count_arithmetic_p_aug_one(self):
        data = [(f"sentence number {i} about a movie", i % 2) for i in range(100)]
        out = apply_policy(data, 2, BASELINE_POLICY, LEX, random.Random(0))
        assert len(out) == 300  # 100 originals + 100 * n_aug=2

    def test_expected_count_monte_carlo(self):
        # E|output| = N * (1 + p_aug * n_aug) = 1000 * 3 = 3000
        data = [(f"sentence number {i} about a movie", i % 2) for i in range(1000)]
        policy = replace(BASELINE_POLICY, p_aug=0.5, n_aug=4)
        sizes = [len(apply_policy(data, 2, policy, LEX, random.Random(s))) for s in range(50)]
        assert 2900 <= sum(sizes) / len(sizes) <= 3100

    def test_output_order_originals_then_grouped(self):
        out = apply_policy(SENTENCES, 2, BASELINE_POLICY, LEX, random.Random(7))
        originals = out[: len(SENTENCES)]
        augmented = out[len(SENTENCES):]
        assert [ex.source_index for ex in originals] == list(range(len(SENTENCES)))
        assert [ex.source_index for ex in augmented] == sorted(
            ex.source_index for ex in augmented
        )

    def test_argmax_follows_source_label(self):
        policy = replace(BASELINE_POLICY, eps_ori=0.3, eps_aug=0.6)
        out = apply_policy(SENTENCES, 2, policy, LEX, random.Random(5))
        for ex in out:
            assert int(np.argmax(ex.soft_label)) == SENTENCES[ex.source_index][1]

    def test_no_smoothing_gives_one_hot(self):
        policy = replace(BASELINE_POLICY, eps_ori=0.0, eps_aug=0.0)
        out = apply_policy(SENTENCES, 2, policy, LEX, random.Random(5))
        for ex in out:
            assert sorted(ex.soft_label) == [0.0, 1.0]

    def test_deterministic_under_seed(self):
        a = apply_policy(SENTENCES, 2, BASELINE_POLICY, LEX, random.Random(9))
        b = apply_policy(SENTENCES, 2, BASELINE_POLICY, LEX, random.Random(9))
        assert [ex.text for ex in a] == [ex.text for ex in b]

    def test_empty_dataset_raises(self):
        with pytest.raises(DomainError):
            apply_policy([], 2, BASELINE_POLICY, LEX, random.Random(0))

    def test_empty_text_skipped_with_warning(self, caplog):
        data = [("a fine movie", 1), ("   ", 0)]
        with caplog.at_level("WARNING"):
            out = apply_policy(data, 2, BASELINE_POLICY, LEX, random.Random(0))
        assert len(out) == 2 + BASELINE_POLICY.n_aug  # only example 0 augmented
        assert any("example 1" in r.message for r in caplog.records)

    def test_invalid_policy_rejected(self):
        # the policy checks itself when built, before apply_policy sees it
        with pytest.raises(DomainError):
            apply_policy(SENTENCES, 2, replace(BASELINE_POLICY, n_aug=0), LEX, random.Random(0))

    def test_unknown_op_rejected(self):
        with pytest.raises(DomainError):
            apply_policy(SENTENCES, 2, BASELINE_POLICY, LEX, random.Random(0), op="bt")

    @pytest.mark.parametrize("op", ["eda", "aeda"])
    def test_p_aug_zero_draws_nothing(self, op):
        rng = random.Random(3)
        before = rng.getstate()
        apply_policy(SENTENCES, 2, replace(BASELINE_POLICY, p_aug=0.0), LEX, rng, op=op)
        assert rng.getstate() == before

    def test_aeda_copies_strip_to_source(self):
        out = apply_policy(
            SENTENCES, 2, replace(BASELINE_POLICY, n_aug=8), LEX, random.Random(4), op="aeda"
        )
        copies = out[len(SENTENCES):]
        assert len(copies) == 8 * len(SENTENCES)
        for ex in copies:
            tokens = tokenize(ex.text)
            source = tokenize(SENTENCES[ex.source_index][0])
            assert [t for t in tokens if t not in PUNCTUATION_MARKS] == source
            assert len(tokens) > len(source)

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(["good", "bad", "film", "the", "plot", "!"]), max_size=6),
            min_size=1,
            max_size=8,
        ),
        op=st.sampled_from(["eda", "aeda"]),
        p_aug=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        n_aug=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_count_law(self, texts, op, p_aug, n_aug, seed):
        split = [(" ".join(words), i % 2) for i, words in enumerate(texts)]
        policy = replace(BASELINE_POLICY, p_aug=p_aug, n_aug=n_aug)
        out = apply_policy(split, 2, policy, LEX, random.Random(seed), op=op)
        n = len(split)
        assert [(ex.text, ex.source_index) for ex in out[:n]] == [
            (text, i) for i, (text, _) in enumerate(split)
        ]
        assert all(ex.provenance == "original" for ex in out[:n])
        groups = [
            (src, len(list(g))) for src, g in itertools.groupby(ex.source_index for ex in out[n:])
        ]
        sources = [src for src, _ in groups]
        assert sources == sorted(set(sources))
        assert all(size == n_aug for _, size in groups)
        assert len(out) == n + n_aug * len(groups)
        assert all(tokenize(split[src][0]) for src in sources)
        if p_aug == 0.0:
            assert groups == []
        if p_aug == 1.0:
            assert sources == [i for i, (text, _) in enumerate(split) if tokenize(text)]


class TestApplyPolicyGolden:
    # (example count, sha256 of every example's text, provenance, source
    # index and label bytes, then the rng end state), recorded with the
    # per-copy eda calls that each source's one preparation replaced
    GOLDEN = {
        "eda": (4646, "45b98e9eb011b027708144d78b132171bdc98ad15f78fbc20a010b6ce8ba4107"),
        "aeda": (4628, "af240cd03a0f2967050bd44d59912320bb9d4426eb250c6e953975e13b4cc458"),
    }

    @pytest.mark.parametrize("op", sorted(GOLDEN))
    def test_surrogate_train_split(self, op):
        data = make_synthetic_reviews()
        policy = sample_policy(PolicySpace(), random.Random(3))
        rng = random.Random(2024)
        out = apply_policy(data.split("train"), data.n_class, policy, LEX, rng, op=op)
        h = hashlib.sha256()
        for ex in out:
            h.update(f"{ex.text}\t{ex.provenance}\t{ex.source_index}\n".encode())
            h.update(ex.soft_label.tobytes())
        h.update(repr(rng.getstate()).encode())
        assert (len(out), h.hexdigest()) == self.GOLDEN[op]

    @pytest.mark.parametrize("op", ["eda", "aeda"])
    def test_labels_are_shared_read_only_smooth_labels(self, op):
        policy = replace(BASELINE_POLICY, eps_ori=0.05, eps_aug=0.2)
        out = apply_policy(SENTENCES, 2, policy, LEX, random.Random(1), op=op)
        for ex in out:
            eps = policy.eps_ori if ex.provenance == "original" else policy.eps_aug
            expected = smooth_label(SENTENCES[ex.source_index][1], 2, eps)
            assert ex.soft_label.tobytes() == expected.tobytes()
            with pytest.raises(ValueError):
                ex.soft_label[0] = 0.5
        # one array per (class, eps): 2 classes x 2 smoothing factors
        assert len({id(ex.soft_label) for ex in out}) == 4

    @settings(max_examples=40, deadline=None)
    @given(
        split=st.lists(
            st.tuples(st.sampled_from([text for text, _ in SENTENCES] + ["   "]), st.integers(0, 2)),
            min_size=1,
            max_size=8,
        ),
        op=st.sampled_from(["eda", "aeda"]),
        eps_ori=st.sampled_from([0.0, 0.1, 0.3]),
        eps_aug=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**16),
    )
    def test_one_read_only_array_per_class_and_eps(self, split, op, eps_ori, eps_aug, seed):
        # the examples are not frozen; the read-only arrays guard their labels
        policy = replace(BASELINE_POLICY, eps_ori=eps_ori, eps_aug=eps_aug)
        out = apply_policy(split, 3, policy, LEX, random.Random(seed), op=op)
        shared = {}
        for ex in out:
            assert not ex.soft_label.flags.writeable
            eps = eps_ori if ex.provenance == "original" else eps_aug
            assert shared.setdefault((split[ex.source_index][1], eps), ex.soft_label) is ex.soft_label
        assert len({id(label) for label in shared.values()}) == len(shared)

    def test_examples_are_slots_dataclasses(self):
        ex = apply_policy(SENTENCES, 2, BASELINE_POLICY, LEX, random.Random(0))[0]
        assert not hasattr(ex, "__dict__")
        assert replace(ex, text="x").soft_label is ex.soft_label

    def test_label_of_an_out_of_range_class_still_rejected(self):
        with pytest.raises(DomainError, match="class index 2"):
            apply_policy([("good film", 2)], 2, BASELINE_POLICY, LEX, random.Random(0))


class TestPolicySerialization:
    def test_json_round_trip(self):
        assert from_json(AugmentationPolicy, json.loads(BASELINE_POLICY.to_json()), "policy") == BASELINE_POLICY
