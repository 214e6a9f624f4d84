import ast
import inspect
import io
import math
import random
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from softaug import augment, datasets
from softaug.augment import (
    PUNCTUATION_MARKS,
    _below,
    _sample,
    aeda,
    eda,
    random_deletion,
    random_insertion,
    random_swap,
    synonym_replacement,
)
from softaug.datasets import make_synthetic_reviews
from softaug.errors import DomainError
from softaug.labels import smooth_label
from softaug.policy import AugmentationPolicy, PolicySpace, apply_policy, sample_policy
from softaug.textops import SynonymLexicon, detokenize, is_stopword, load_lexicon, tokenize


def make_lex(entries: dict[str, list[str]]):
    text = "\n".join(f"{w}\t{','.join(s)}" for w, s in entries.items())
    return load_lexicon(io.BytesIO(text.encode("utf-8")))


# every token eligible: non-stopword, has synonyms distinct from itself
RICH_TOKENS = [f"word{i}" for i in range(10)]
RICH_LEX = make_lex({f"word{i}": [f"syn{i}a", f"syn{i}b"] for i in range(10)})
EMPTY_LEX = make_lex({})

token_lists = st.lists(
    st.sampled_from(RICH_TOKENS + ["extra", "thing", "object"]), min_size=1, max_size=15
)


class TestSynonymReplacement:
    def test_single_eligible_word_forced(self):
        lex = make_lex({"great": ["fine"]})
        out = synonym_replacement(["the", "movie", "was", "great"], 0.1, lex, random.Random(3))
        assert out == ["the", "movie", "was", "fine"]

    def test_no_lexicon_hits_identity(self):
        seq = ["alpha", "beta", "gamma"]
        assert synonym_replacement(seq, 0.5, EMPTY_LEX, random.Random(0)) == seq

    def test_exact_replacement_count(self):
        # n = max(1, round_half_up(0.3 * 10)) = 3 on a fully eligible sequence
        for seed in range(20):
            out = synonym_replacement(RICH_TOKENS, 0.3, RICH_LEX, random.Random(seed))
            diffs = sum(1 for a, b in zip(RICH_TOKENS, out) if a != b)
            assert diffs == 3

    def test_round_half_up_tie(self):
        # 0.25 * 10 = 2.5 rounds up to 3
        out = synonym_replacement(RICH_TOKENS, 0.25, RICH_LEX, random.Random(1))
        assert sum(1 for a, b in zip(RICH_TOKENS, out) if a != b) == 3

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            synonym_replacement([], 0.1, RICH_LEX, random.Random(0))

    @given(token_lists, st.floats(0, 1), st.integers(0, 2**31))
    def test_length_preserved(self, seq, alpha, seed):
        assert len(synonym_replacement(seq, alpha, RICH_LEX, random.Random(seed))) == len(seq)


class TestRandomInsertion:
    def test_forced_source_and_synonym(self):
        lex = make_lex({"great": ["fine"]})
        out = random_insertion(["great"], 0.05, lex, random.Random(0))
        assert len(out) == 2 and Counter(out) == Counter(["great", "fine"])

    def test_no_lexicon_hits_identity(self):
        seq = ["alpha", "beta"]
        assert random_insertion(seq, 0.9, EMPTY_LEX, random.Random(0)) == seq

    def test_insertion_count(self):
        # n = max(1, round_half_up(0.25 * 8)) = 2
        seq = RICH_TOKENS[:8]
        for seed in range(20):
            assert len(random_insertion(seq, 0.25, RICH_LEX, random.Random(seed))) == 10

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            random_insertion([], 0.1, RICH_LEX, random.Random(0))

    @given(token_lists, st.floats(0, 1), st.integers(0, 2**31))
    def test_length_bounds(self, seq, alpha, seed):
        out = random_insertion(seq, alpha, RICH_LEX, random.Random(seed))
        n = max(1, int(alpha * len(seq) + 0.5))
        assert len(seq) <= len(out) <= len(seq) + n


class TestRandomSwap:
    def test_singleton_identity(self):
        assert random_swap(["a"], 0.9, random.Random(0)) == ["a"]

    def test_two_tokens_forced_swap(self):
        assert random_swap(["a", "b"], 0.1, random.Random(123)) == ["b", "a"]

    def test_multiset_preserved(self):
        seq = [f"t{i}" for i in range(12)]
        for seed in range(50):
            out = random_swap(seq, 0.2, random.Random(seed))
            assert sorted(out) == sorted(seq)

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            random_swap([], 0.1, random.Random(0))


class TestRandomDeletion:
    def test_alpha_zero_identity(self):
        seq = ["a", "b", "c", "d"]
        assert random_deletion(seq, 0.0, random.Random(0)) == seq

    def test_total_deletion_keeps_one(self):
        for seed in range(20):
            out = random_deletion(["a", "b", "c"], 1.0, random.Random(seed))
            assert len(out) == 1 and out[0] in {"a", "b", "c"}

    def test_survival_rate_matches_binomial(self):
        # Monte-Carlo oracle: expected surviving fraction 1 - 0.1 = 0.9
        seq = [f"t{i}" for i in range(1000)]
        fracs = [len(random_deletion(seq, 0.1, random.Random(s))) / 1000 for s in range(100)]
        assert 0.88 <= sum(fracs) / len(fracs) <= 0.92

    @given(token_lists, st.floats(0, 1), st.integers(0, 2**31))
    def test_output_is_ordered_subsequence_or_keepone(self, seq, alpha, seed):
        out = random_deletion(seq, alpha, random.Random(seed))
        assert 1 <= len(out) <= len(seq)
        it = iter(seq)
        assert all(tok in it for tok in out)  # relative order preserved


def eda_policy(alpha_sr, alpha_ri, alpha_rs, alpha_rd, mix):
    """A policy whose only fields eda reads are the mix and the magnitudes."""
    p_sr, p_ri, p_rs, p_rd = mix
    return AugmentationPolicy(
        p_aug=1.0, p_sr=p_sr, p_ri=p_ri, p_rs=p_rs, p_rd=p_rd,
        alpha_sr=alpha_sr, alpha_ri=alpha_ri, alpha_rs=alpha_rs, alpha_rd=alpha_rd,
        n_aug=1, eps_ori=0.0, eps_aug=0.0,
    )


UNIFORM = eda_policy(0.1, 0.1, 0.1, 0.1, (0.25, 0.25, 0.25, 0.25))
SUBOPS = ("sr", "ri", "rs", "rd")


class TestEda:
    def test_one_hot_sr_matches_suboperation(self):
        params = eda_policy(0.1, 0.1, 0.1, 0.1, (1.0, 0.0, 0.0, 0.0))
        for seed in range(10):
            got = eda(RICH_TOKENS, params, RICH_LEX, random.Random(seed))
            mirror = random.Random(seed)
            mirror.random()  # the dispatcher's single selection draw
            assert got == synonym_replacement(RICH_TOKENS, 0.1, RICH_LEX, mirror)

    def test_one_hot_rs_two_tokens(self):
        params = eda_policy(0.1, 0.1, 0.1, 0.1, (0.0, 0.0, 1.0, 0.0))
        assert eda(["a", "b"], params, RICH_LEX, random.Random(0)) == ["b", "a"]

    def test_uniform_dispatch_frequencies(self):
        # signature per suboperation: RI grows, RD (alpha 0) is identity,
        # SR introduces a synonym token, RS permutes
        params = eda_policy(0.05, 0.05, 0.05, 0.0, (0.25, 0.25, 0.25, 0.25))
        syn_tokens = {s for i in range(10) for s in (f"syn{i}a", f"syn{i}b")}
        counts = Counter()
        rng = random.Random(42)
        for _ in range(10_000):
            out = eda(RICH_TOKENS, params, RICH_LEX, rng)
            if len(out) > 10:
                counts["ri"] += 1
            elif out == RICH_TOKENS:
                counts["rd"] += 1
            elif any(tok in syn_tokens for tok in out):
                counts["sr"] += 1
            else:
                counts["rs"] += 1
        for op in ("sr", "ri", "rs", "rd"):
            assert 0.24 <= counts[op] / 10_000 <= 0.26, counts

    @pytest.mark.parametrize("k", range(4))
    def test_empty_raises_whichever_suboperation(self, k):
        # the suboperation eda dispatches to rejects the empty sentence
        params = eda_policy(0.1, 0.1, 0.1, 0.1, tuple(float(i == k) for i in range(4)))
        with pytest.raises(DomainError, match="empty sentence"):
            eda([], params, RICH_LEX, random.Random(0))

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            eda_policy(0.1, 0.1, 0.1, 0.1, (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(DomainError):
            eda_policy(1.5, 0.1, 0.1, 0.1, (0.25, 0.25, 0.25, 0.25))

    @given(token_lists, st.integers(0, 2**31))
    def test_deterministic_under_seed(self, seq, seed):
        a = eda(seq, UNIFORM, RICH_LEX, random.Random(seed))
        b = eda(seq, UNIFORM, RICH_LEX, random.Random(seed))
        assert a == b

    @given(token_lists, st.integers(0, 2**31), st.integers(0, 3), st.integers(0, 2**31))
    def test_one_hot_sampled_policy_matches_suboperation(self, seq, policy_seed, k, seed):
        drawn = sample_policy(PolicySpace(), random.Random(policy_seed))
        policy = replace(drawn, **{f"p_{op}": float(i == k) for i, op in enumerate(SUBOPS)})
        mirror = random.Random(seed)
        mirror.random()  # the dispatcher's single selection draw
        alpha = getattr(policy, f"alpha_{SUBOPS[k]}")
        if k < 2:
            expected = (synonym_replacement, random_insertion)[k](seq, alpha, RICH_LEX, mirror)
        else:
            expected = (random_swap, random_deletion)[k - 2](seq, alpha, mirror)
        assert eda(seq, policy, RICH_LEX, random.Random(seed)) == expected


class TestAeda:
    def test_single_token_forced_k(self):
        for seed in range(20):
            out = aeda(["a"], random.Random(seed))
            assert len(out) == 2
            inserted = [t for t in out if t != "a"]
            assert len(inserted) == 1 and inserted[0] in PUNCTUATION_MARKS

    def test_insertion_only_recovery(self):
        seq = [f"t{i}" for i in range(9)]
        for seed in range(50):
            out = aeda(seq, random.Random(seed))
            assert [t for t in out if t not in PUNCTUATION_MARKS] == seq

    def test_k_distribution(self):
        # 9 tokens -> k uniform over {1, 2, 3}
        seq = [f"t{i}" for i in range(9)]
        counts = Counter(len(aeda(seq, random.Random(s))) - 9 for s in range(10_000))
        assert set(counts) == {1, 2, 3}
        for k in (1, 2, 3):
            assert 0.31 <= counts[k] / 10_000 <= 0.36, counts

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            aeda([], random.Random(0))


# any unicode word that tokenize keeps whole: non-empty, no whitespace
unicode_words = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda w: tokenize(w) == [w])


class TestUnicodeTokens:
    """The augment invariants hold on arbitrary unicode words, with a
    lexicon that gives every other word a unicode synonym."""

    @given(st.lists(unicode_words, min_size=1, max_size=12), unicode_words,
           st.floats(0, 0.5), st.integers(0, 2**31))
    def test_invariants(self, seq, syn, alpha, seed):
        lex = SynonymLexicon({w.lower(): (syn + "~",) for w in seq[::2]})
        rng = random.Random(seed)
        sr = synonym_replacement(seq, alpha, lex, rng)
        assert len(sr) == len(seq)
        ri = random_insertion(seq, alpha, lex, rng)
        assert len(ri) >= len(seq) and not Counter(seq) - Counter(ri)
        rs = random_swap(seq, alpha, rng)
        assert Counter(rs) == Counter(seq)
        rd = random_deletion(seq, alpha, rng)
        it = iter(seq)
        assert rd and all(tok in it for tok in rd)
        ae = aeda(seq, rng)
        it = iter(ae)
        assert all(tok in it for tok in seq)  # the input survives in order
        inserted = Counter(ae) - Counter(seq)
        assert set(inserted) <= set(PUNCTUATION_MARKS)
        assert 1 <= inserted.total() == len(ae) - len(seq) <= max(1, len(seq) // 3)
        ed = eda(seq, UNIFORM, lex, random.Random(seed))
        assert ed == eda(seq, UNIFORM, lex, random.Random(seed))
        # every output survives the detokenize -> tokenize round trip
        for out in (sr, ri, rs, rd, ae, ed):
            assert tokenize(detokenize(out)) == out


# The per-copy augmentation that each selected source's preparation in
# apply_policy replaced: every copy rescans its sentence for eligible words,
# picks its suboperation with random.choices and smooths its own label.
def ref_sr(seq, alpha, lex, rng):
    n = max(1, math.floor(alpha * len(seq) + 0.5))
    eligible = [i for i, tok in enumerate(seq) if not is_stopword(tok) and lex.synonyms(tok)]
    out = list(seq)
    for i in rng.sample(eligible, min(n, len(eligible))):
        out[i] = rng.choice(lex.synonyms(seq[i]))
    return out


def ref_ri(seq, alpha, lex, rng):
    n = max(1, math.floor(alpha * len(seq) + 0.5))
    sources = [tok for tok in seq if not is_stopword(tok) and lex.synonyms(tok)]
    out = list(seq)
    for _ in range(n if sources else 0):
        word = rng.choice(sources)
        syn = rng.choice(lex.synonyms(word))
        out.insert(rng.randint(0, len(out)), syn)
    return out


def ref_rs(seq, alpha, rng):
    out = list(seq)
    for _ in range(max(1, math.floor(alpha * len(seq) + 0.5)) if len(seq) >= 2 else 0):
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
    return out


def ref_rd(seq, alpha, rng):
    out = [tok for tok in seq if rng.random() >= alpha]
    return out or [seq[rng.randrange(len(seq))]]


def ref_eda(seq, p, lex, rng):
    kind = rng.choices(SUBOPS, (p.p_sr, p.p_ri, p.p_rs, p.p_rd))[0]
    if kind in ("sr", "ri"):
        return (ref_sr if kind == "sr" else ref_ri)(seq, getattr(p, f"alpha_{kind}"), lex, rng)
    return ref_rs(seq, p.alpha_rs, rng) if kind == "rs" else ref_rd(seq, p.alpha_rd, rng)


def ref_aeda(seq, rng):
    out = list(seq)
    for _ in range(rng.randint(1, max(1, len(seq) // 3))):
        mark = rng.choice(PUNCTUATION_MARKS)
        out.insert(rng.randint(0, len(out)), mark)
    return out


def ref_apply_policy(split, n_class, p, lex, rng, op):
    out = [(text, smooth_label(y, n_class, p.eps_ori), "original", i) for i, (text, y) in enumerate(split)]
    for i, (text, y) in enumerate(split):
        if p.p_aug and rng.random() < p.p_aug and (tokens := tokenize(text)):
            for _ in range(p.n_aug):
                aug = ref_eda(tokens, p, lex, rng) if op == "eda" else ref_aeda(tokens, rng)
                out.append((detokenize(aug), smooth_label(y, n_class, p.eps_aug), "eda-augmented", i))
    return out


# headwords include stopwords ("the", "and", "being"), which are never eligible
REF_LEX = make_lex({
    "good": ["fine", "great"], "film": ["movie"], "plot": ["story", "storyline", "narrative"],
    "the": ["this"], "and": ["plus"], "being": ["existing"],
})
ref_words = st.sampled_from(
    ["good", "Good", "GOOD", "film", "FILM", "plot", "the", "The", "and", "AND", "being", "zebra", "Quux", "!"]
)
ref_splits = st.lists(st.tuples(st.lists(ref_words, max_size=9).map(" ".join), st.integers(0, 2)),
                      min_size=1, max_size=6)
policies = st.integers(0, 2**32).map(lambda s: sample_policy(PolicySpace(), random.Random(s)))
# up to 40 tokens, weighted toward 21 and 22: past 21 tokens random_swap
# redraws a pair's second pick, and SR picks more than 5 positions
long_sentences = st.one_of(st.sampled_from([21, 22]), st.integers(1, 40)).flatmap(
    lambda n: st.lists(ref_words, min_size=n, max_size=n)
)


class TestPreparedMatchesPerCopyReference:
    @settings(max_examples=150, deadline=None)
    @given(ref_splits, policies, st.sampled_from(["eda", "aeda"]), st.integers(0, 2**32))
    def test_apply_policy(self, split, policy, op, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = apply_policy(split, 3, policy, REF_LEX, rng, op=op)
        expected = ref_apply_policy(split, 3, policy, REF_LEX, ref_rng, op)
        assert [(e.text, e.soft_label.tolist(), e.provenance, e.source_index) for e in got] == [
            (text, label.tolist(), provenance, i) for text, label, provenance, i in expected
        ]
        assert rng.getstate() == ref_rng.getstate()

    @given(long_sentences, st.floats(0, 0.5), st.integers(0, 2**32))
    def test_suboperations_and_aeda(self, seq, alpha, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert synonym_replacement(seq, alpha, REF_LEX, rng) == ref_sr(seq, alpha, REF_LEX, ref_rng)
        assert random_insertion(seq, alpha, REF_LEX, rng) == ref_ri(seq, alpha, REF_LEX, ref_rng)
        assert random_swap(seq, alpha, rng) == ref_rs(seq, alpha, ref_rng)
        assert random_deletion(seq, alpha, rng) == ref_rd(seq, alpha, ref_rng)
        assert aeda(seq, rng) == ref_aeda(seq, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    def test_deleting_every_token_keeps_one(self):
        seq = ["good", "film", "the", "plot", "zebra"]
        kept = set()
        for seed in range(40):
            rng, ref_rng, coins = random.Random(seed), random.Random(seed), random.Random(seed)
            out = random_deletion(seq, 1.0, rng)
            assert out == ref_rd(seq, 1.0, ref_rng) and len(out) == 1
            assert rng.getstate() == ref_rng.getstate()
            for _ in seq:
                coins.random()
            assert rng.getstate() != coins.getstate()  # the keep-one draw ran
            kept.update(out)
        assert kept == set(seq)

    @given(long_sentences, policies, st.integers(0, 2**32))
    def test_eda(self, seq, policy, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert [eda(seq, policy, REF_LEX, rng) for _ in range(4)] == [
            ref_eda(seq, policy, REF_LEX, ref_rng) for _ in range(4)
        ]
        assert rng.getstate() == ref_rng.getstate()


# n >= 1 up to 2**64, weighted toward the bit-length edges 2**j - 1, 2**j, 2**j + 1
bit_edges = st.builds(lambda j, d: 2**j + d, st.integers(0, 64), st.sampled_from([-1, 0, 1]))
below_bounds = st.one_of(bit_edges.filter(lambda n: 1 <= n <= 2**64), st.integers(1, 2**64))


class TestBelow:
    @given(st.integers(0, 2**32), below_bounds)
    def test_matches_randrange(self, seed, n):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert [_below(rng, n) for _ in range(3)] == [ref_rng.randrange(n) for _ in range(3)]
        assert rng.getstate() == ref_rng.getstate()


@st.composite
def sample_sizes(draw):
    """(n, k) weighted toward the branch edges of random.Random.sample: its
    pool holds n <= 21 items for k <= 5 and n <= 85 for 6 <= k <= 21."""
    n = draw(st.one_of(st.sampled_from([21, 22, 85, 86]), st.integers(0, 90)))
    return n, min(n, draw(st.one_of(st.sampled_from([5, 6]), st.integers(0, n))))


class TestSample:
    @settings(deadline=None)
    @given(st.integers(0, 2**32), sample_sizes(), st.sampled_from([range, lambda n: [f"w{i}" for i in range(n)]]))
    def test_matches_sample(self, seed, sizes, population):
        n, k = sizes
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert _sample(rng, population(n), k) == ref_rng.sample(population(n), k)
        assert rng.getstate() == ref_rng.getstate()


class TestDrawSources:
    # _below and _sample give what the stdlib samplers would, so equal
    # outputs cannot show an rng.sample, choice, randrange or randint call
    # coming back; the source can
    @pytest.mark.parametrize("source", [
        Path(augment.__file__).read_text("utf-8"), inspect.getsource(make_synthetic_reviews),
        inspect.getsource(datasets._stratified_split),
    ], ids=["augment", "make_synthetic_reviews", "_stratified_split"])
    def test_only_random_and_getrandbits(self, source):
        called = {
            node.func.attr for node in ast.walk(ast.parse(textwrap.dedent(source)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "rng"
        }
        assert called <= {"random", "getrandbits"}, called


class TestEligible:
    def test_stopwords_and_case(self):
        seq = ["The", "GOOD", "zebra", "being", "Film", "and", "good"]
        assert REF_LEX.eligible(seq) == [(1, ("fine", "great")), (4, ("movie",)), (6, ("fine", "great"))]

    def test_returns_stored_tuples(self):
        (_, first), (_, second) = REF_LEX.eligible(["good", "Good"])
        assert first is second
