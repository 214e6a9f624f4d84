import io
import json
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from softaug import search
from softaug.classifier import EpochStats, TrainConfig, train
from softaug.errors import DomainError, TrainingError
from softaug.policy import _RANGES, AugmentationPolicy, PolicySpace, apply_policy, sample_policy
from softaug.search import _SEED_RANGE, SearchConfig, TrialRecord, objective, optimize, suggest
from softaug.textops import load_bundled_lexicon

LEX = load_bundled_lexicon()
SPACE = PolicySpace()

TRAIN = [
    ("the movie was great and wonderful", 1),
    ("an excellent touching story with fine acting", 1),
    ("a delightful clever film", 1),
    ("truly amazing and enjoyable", 1),
    ("a terrible boring film", 0),
    ("the plot felt weak and predictable", 0),
    ("awful dialogue and a dull ending", 0),
    ("disappointing messy and bland", 0),
]
VAL = [
    ("a wonderful enjoyable movie", 1),
    ("great fine acting", 1),
    ("boring terrible plot", 0),
    ("weak bland dialogue", 0),
]

FAST = SearchConfig(n_trials=3, n_startup=2, runs_per_trial=1)
FAST_TRAIN = TrainConfig(max_epochs=2, patience=2)


def synthetic_record(policy, score, index):
    return TrialRecord(policy, score, (score,), index, index)


def synthetic_history(space, n, score_fn, seed=0):
    rng = random.Random(seed)
    history = []
    for i in range(n):
        p = sample_policy(space, rng)
        history.append(synthetic_record(p, score_fn(p), i))
    return history


class TestSuggest:
    def test_startup_returns_valid_prior_draw(self):
        cfg = SearchConfig()
        suggest([], SPACE, cfg, random.Random(0))  # construction raises on an invalid draw

    def test_tpe_branch_returns_valid_policy(self):
        history = synthetic_history(SPACE, 30, lambda p: -((p.p_aug - 0.7) ** 2))
        cfg = SearchConfig()
        for seed in range(20):
            suggest(history, SPACE, cfg, random.Random(seed))  # construction raises on an invalid draw

    def test_smoothing_clamp_in_both_branches(self):
        # trials 0-1 are prior draws, trials 2-4 TPE proposals
        cfg = replace(FAST, n_trials=5)
        _, log = optimize(TRAIN, VAL, 2, SPACE, LEX, cfg, FAST_TRAIN, 0, smoothing=False)
        assert len(log) == 5 and cfg.n_startup == 2
        assert all(r.policy.eps_ori == 0.0 and r.policy.eps_aug == 0.0 for r in log)
        # pinning draws nothing: the startup trials match the smoothed run's
        _, smoothed = optimize(TRAIN, VAL, 2, SPACE, LEX, cfg, FAST_TRAIN, 0)
        for a, b in zip(log[:2], smoothed[:2]):
            assert a.seed == b.seed
            assert a.policy == replace(b.policy, eps_ori=0.0, eps_aug=0.0)
            assert b.policy.eps_ori > 0.0 and b.policy.eps_aug > 0.0

    def test_concentrates_near_known_optimum(self):
        # 1-D effective objective: only p_aug matters, optimum at 0.7
        history = synthetic_history(SPACE, 30, lambda p: -((p.p_aug - 0.7) ** 2))
        cfg = SearchConfig()
        rng = random.Random(42)
        suggested = [suggest(history, SPACE, cfg, rng).p_aug for _ in range(200)]
        assert abs(statistics.median(suggested) - 0.7) < 0.15

    def test_config_invariants(self):
        with pytest.raises(DomainError):
            SearchConfig(n_trials=5, n_startup=5)
        with pytest.raises(DomainError):
            SearchConfig(gamma=0.0)
        with pytest.raises(DomainError):
            SearchConfig(runs_per_trial=0)
        for name, value in [
            ("n_trials", 2.5), ("n_startup", 1.5), ("n_candidates", 24.0),
            ("runs_per_trial", 1.5), ("runs_per_trial", True), ("gamma", float("nan")),
            ("gamma", "x"), ("gamma", True), ("gamma", None),
        ]:
            with pytest.raises(DomainError, match=name):
                SearchConfig(**{name: value})


# The prior draw and the vector-to-policy map as they were written field by
# field, before PolicySpace held the policy's coordinates: the references the
# field-table code must match bit for bit, so every golden keeps its draws.
def reference_renormalize(weights):
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[probs.index(max(probs))] += 1.0 - sum(probs)
    return probs


def reference_sample_policy(space, rng):
    probs = reference_renormalize([rng.uniform(*space.weight) for _ in range(4)])
    return AugmentationPolicy(
        p_aug=rng.uniform(*space.p_aug),
        p_sr=probs[0],
        p_ri=probs[1],
        p_rs=probs[2],
        p_rd=probs[3],
        alpha_sr=rng.uniform(*space.alpha_sr),
        alpha_ri=rng.uniform(*space.alpha_ri),
        alpha_rs=rng.uniform(*space.alpha_rs),
        alpha_rd=rng.uniform(*space.alpha_rd),
        n_aug=rng.choice(space.n_aug_choices),
        eps_ori=rng.uniform(*space.eps_ori),
        eps_aug=rng.uniform(*space.eps_aug),
    )


REFERENCE_DIMS = (
    ("p_aug", "p_aug"), ("p_sr", "weight"), ("p_ri", "weight"), ("p_rs", "weight"),
    ("p_rd", "weight"), ("alpha_sr", "alpha_sr"), ("alpha_ri", "alpha_ri"),
    ("alpha_rs", "alpha_rs"), ("alpha_rd", "alpha_rd"), ("eps_ori", "eps_ori"), ("eps_aug", "eps_aug"),
)


def reference_vector_to_policy(vec, space):
    values = {}
    for (fname, bname), x in zip(REFERENCE_DIMS, vec[:-1]):
        lo, hi = getattr(space, bname)
        values[fname] = min(max(x, lo), hi)
    probs = reference_renormalize([values["p_sr"], values["p_ri"], values["p_rs"], values["p_rd"]])
    values.update(p_sr=probs[0], p_ri=probs[1], p_rs=probs[2], p_rd=probs[3])
    return AugmentationPolicy(n_aug=int(vec[-1]), **values)


@st.composite
def bound_pairs(draw, lo, hi):
    a, b = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    return (min(a, b), max(a, b)) if a != b else (lo, hi)


@st.composite
def spaces(draw):
    """A PolicySpace with every bound drawn inside its _RANGES row (the
    weights inside (0, 10]) and a few distinct copy counts."""
    bounds = {name: draw(bound_pairs(lo, hi)) for name, (lo, hi) in _RANGES.items()}
    weight = draw(bound_pairs(1e-3, 10.0))
    choices = draw(st.lists(st.integers(1, 16), min_size=1, max_size=5, unique=True))
    return PolicySpace(weight=weight, n_aug_choices=tuple(choices), **bounds)


# values inside and outside every bound, signed zeros and the bounds' own edges included
coordinates = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([-0.0, 0.0, 0.01, 0.3, 0.5, 0.75, 0.9, 1.0]))


class TestPolicyCoordinates:
    @settings(max_examples=300, deadline=None)
    @given(spaces(), st.integers(0, 2**64))
    def test_prior_draw_matches_reference(self, space, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert repr(sample_policy(space, rng).to_dict()) == repr(reference_sample_policy(space, ref_rng).to_dict())
        assert rng.getstate() == ref_rng.getstate()

    @settings(max_examples=300, deadline=None)
    @given(spaces(), st.lists(coordinates, min_size=11, max_size=11), st.integers(1, 16))
    def test_vector_to_policy_matches_reference(self, space, cont, n_aug):
        vec = (*cont, n_aug)
        new = space.policy(dict(zip(search._DIMS, vec)))
        assert repr(new.to_dict()) == repr(reference_vector_to_policy(vec, space).to_dict())


class TestObjective:
    def test_run_scores_aggregation(self):
        policy = sample_policy(SPACE, random.Random(0))
        cfg = replace(FAST, runs_per_trial=3)
        run_scores, score = objective(policy, TRAIN, VAL, 2, LEX, cfg, FAST_TRAIN, random.Random(1))
        assert len(run_scores) == 3
        assert score == pytest.approx(sum(run_scores) / 3)

    def test_deterministic_under_seed(self):
        policy = sample_policy(SPACE, random.Random(2))
        a = objective(policy, TRAIN, VAL, 2, LEX, FAST, FAST_TRAIN, random.Random(3))
        b = objective(policy, TRAIN, VAL, 2, LEX, FAST, FAST_TRAIN, random.Random(3))
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [{}, {"p_aug": 0.0}, {"p_aug": 1.0, "n_aug": max(SPACE.n_aug_choices)}, {"eps_ori": 0.3, "eps_aug": 0.7}],
    )
    def test_runs_equal_sequential_trainings(self, change):
        policy = replace(sample_policy(SPACE, random.Random(4)), **change)
        cfg = replace(FAST, runs_per_trial=3)
        train_cfg = TrainConfig(batch_size=5, max_epochs=6, patience=2)
        # reference: each run seeded from the trial rng in turn, then
        # augmented and trained alone
        rng, expected = random.Random(7), []
        for _ in range(cfg.runs_per_trial):
            run_rng = random.Random(rng.randrange(_SEED_RANGE))
            augmented = apply_policy(TRAIN, 2, policy, LEX, run_rng)
            _, history = train(augmented, VAL, 2, train_cfg, run_rng)
            expected.append(max(h.val_accuracy for h in history))
        run_scores, _ = objective(policy, TRAIN, VAL, 2, LEX, cfg, train_cfg, random.Random(7))
        assert run_scores == tuple(expected)

    def test_first_failed_runs_error_raised(self, monkeypatch):
        # run 0 trains, runs 1 and 2 fail: the trial raises run 1's error, as
        # separate trainings would
        fits = [(None, [EpochStats(1, 0.5, 1.0)])]
        fits += [TrainingError(f"non-finite training loss at epoch {e}") for e in (3, 2)]
        monkeypatch.setattr(search, "train_runs", lambda *args: fits)
        policy = sample_policy(SPACE, random.Random(0))
        cfg = replace(FAST, runs_per_trial=3)
        with pytest.raises(TrainingError) as e:
            objective(policy, TRAIN, VAL, 2, LEX, cfg, FAST_TRAIN, random.Random(1))
        assert e.value is fits[1]

    def test_invalid_policy_rejected(self):
        # the policy checks itself when built, so objective never sees it
        with pytest.raises(DomainError) as e:
            replace(sample_policy(SPACE, random.Random(0)), n_aug=0)
        assert e.value.violations == ["n_aug: 0 must be an integer >= 1"]


class TestOptimize:
    def test_single_trial_budget(self):
        cfg = replace(FAST, n_trials=1, n_startup=1)
        best, log = optimize(TRAIN, VAL, 2, SPACE, LEX, cfg, FAST_TRAIN, 0)
        assert len(log) == 1
        assert best == log[0].policy

    def test_trial_log_bookkeeping(self):
        best, log = optimize(TRAIN, VAL, 2, SPACE, LEX, FAST, FAST_TRAIN, 0)
        assert [r.trial_index for r in log] == list(range(FAST.n_trials))
        assert max(r.score for r in log) == next(
            r.score for r in log if r.policy == best
        )

    def test_reproducible_trial_log(self):
        _, log1 = optimize(TRAIN, VAL, 2, SPACE, LEX, FAST, FAST_TRAIN, 0)
        _, log2 = optimize(TRAIN, VAL, 2, SPACE, LEX, FAST, FAST_TRAIN, 0)
        assert log1 == log2

    def test_trial_log_stream_and_round_trip(self):
        stream = io.StringIO()
        _, log = optimize(TRAIN, VAL, 2, SPACE, LEX, FAST, FAST_TRAIN, 0, trial_log=stream)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == FAST.n_trials
        assert [json.loads(line) for line in lines] == [record.to_dict() for record in log]

    def test_no_label_smoothing_ablation(self):
        _, log = optimize(TRAIN, VAL, 2, SPACE, LEX, FAST, FAST_TRAIN, 0, smoothing=False)
        assert all(r.policy.eps_ori == 0.0 and r.policy.eps_aug == 0.0 for r in log)

    # FAST, FAST_TRAIN, seed 0. Pinning the smoothing factors draws nothing
    # from the rng; on this fixture both runs share every trial seed and
    # every policy value but eps_ori and eps_aug
    GOLDEN_BEST = {
        "p_aug": 0.5601472492317476, "p_sr": 0.36796899896134594,
        "p_ri": 0.3307349565181448, "p_rs": 0.18545339075390682,
        "p_rd": 0.11584265376660231, "alpha_sr": 0.12743089986062014,
        "alpha_ri": 0.23730159082008406, "alpha_rs": 0.09796069056288895,
        "alpha_rd": 0.1482131167041832, "n_aug": 2,
        "eps_ori": 0.15140605674521707, "eps_aug": 0.21137838329977787,
    }
    GOLDEN_TRIALS = [  # (seed, p_aug, n_aug, eps_ori, eps_aug)
        (3246154361, 0.5601472492317476, 2, 0.15140605674521707, 0.21137838329977787),
        (1864753826, 0.8291955123969306, 4, 0.141642814635814, 0.07552590605127435),
        (1947540172, 0.3892177658464704, 8, 0.15445563735923876, 0.18284357647580995),
    ]

    @pytest.mark.parametrize("smoothing", [True, False])
    def test_golden_trial_log(self, smoothing):
        best, log = optimize(TRAIN, VAL, 2, SPACE, LEX, FAST, FAST_TRAIN, 0, smoothing=smoothing)
        pinned = {} if smoothing else {"eps_ori": 0.0, "eps_aug": 0.0}
        assert [r.score for r in log] == [1.0, 1.0, 1.0]
        assert [r.run_scores for r in log] == [(1.0,), (1.0,), (1.0,)]
        assert best.to_dict() == {**self.GOLDEN_BEST, **pinned}
        expected = [
            (seed, p_aug, n_aug, *((0.0, 0.0) if pinned else (eps_ori, eps_aug)))
            for seed, p_aug, n_aug, eps_ori, eps_aug in self.GOLDEN_TRIALS
        ]
        assert [
            (r.seed, r.policy.p_aug, r.policy.n_aug, r.policy.eps_ori, r.policy.eps_aug)
            for r in log
        ] == expected


def synthetic_score(p):
    return -((p.p_aug - 0.6) ** 2) - ((p.eps_aug - 0.2) ** 2)


def run_tpe(cfg, seed):
    rng = random.Random(seed)
    history = []
    for t in range(cfg.n_trials):
        policy = suggest(history, SPACE, cfg, rng)
        history.append(synthetic_record(policy, synthetic_score(policy), t))
    return max(r.score for r in history)


def run_random(n_trials, seed):
    rng = random.Random(seed)
    return max(synthetic_score(sample_policy(SPACE, rng)) for _ in range(n_trials))


def test_tpe_beats_random_search_paired():
    # paired-comparison oracle on a known 2-term quadratic objective
    cfg = SearchConfig(n_trials=20, n_startup=5)
    wins = sum(
        1 for rep in range(20) if run_tpe(cfg, 1000 + rep) >= run_random(20, 2000 + rep)
    )
    assert wins >= 13
