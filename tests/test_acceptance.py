"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py`. Criterion 9 is a
report-and-flag check: it prints the side-by-side comparison and a flag
instead of hard-failing, since the margin is stochastic.
"""
import io
import json
import random
import time
from collections import Counter

import numpy as np
import pytest

from softaug.augment import (
    PUNCTUATION_MARKS,
    aeda,
    eda,
    random_deletion,
    random_insertion,
    random_swap,
    synonym_replacement,
)
from softaug.classifier import TrainConfig
from softaug.cli import main as cli_main
from softaug.harness import ExperimentConfig, EvalReport, ReportCell, render_report, run_experiment
from softaug.labels import smooth_label, soft_ce_gradient, soft_cross_entropy, softmax
from softaug.policy import AugmentationPolicy, PolicySpace, apply_policy, sample_policy
from softaug.search import SearchConfig, TrialRecord, suggest
from softaug.textops import load_bundled_lexicon, load_lexicon

LEX = load_bundled_lexicon()
SPACE = PolicySpace()


def _report(n: int, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_label_smoothing_exactness():
    start = time.perf_counter()
    np.testing.assert_allclose(smooth_label(0, 2, 0.1), [0.95, 0.05], atol=1e-12)
    np.testing.assert_allclose(
        smooth_label(2, 5, 0.3), [0.06, 0.06, 0.76, 0.06, 0.06], atol=1e-12
    )
    for n in (2, 3, 7):
        one_hot = np.zeros(n)
        one_hot[1] = 1.0
        np.testing.assert_allclose(smooth_label(1, n, 0.0), one_hot, atol=1e-12)
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 1.0, f"{elapsed:.3f}s")


def _random_sentence(rng):
    vocab = [f"word{i}" for i in range(10)] + ["extra", "thing", "object"]
    return [rng.choice(vocab) for _ in range(rng.randint(1, 15))]


def test_criterion_02_augmentation_invariants():
    lex = load_lexicon(
        io.BytesIO(
            "\n".join(f"word{i}\tsyn{i}a,syn{i}b" for i in range(10)).encode("utf-8")
        )
    )
    marks = set(PUNCTUATION_MARKS)
    params = AugmentationPolicy(
        p_aug=1.0, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
        alpha_sr=0.2, alpha_ri=0.2, alpha_rs=0.2, alpha_rd=0.2,
        n_aug=1, eps_ori=0.0, eps_aug=0.0,
    )
    start = time.perf_counter()
    meta = random.Random(271828)
    failures = 0
    for case in range(10_000):
        seq = _random_sentence(meta)
        seed = meta.randrange(2**31)
        op = case % 6
        if op == 0:
            out = synonym_replacement(seq, 0.2, lex, random.Random(seed))
            again = synonym_replacement(seq, 0.2, lex, random.Random(seed))
            ok = len(out) == len(seq)
        elif op == 1:
            out = random_insertion(seq, 0.2, lex, random.Random(seed))
            again = random_insertion(seq, 0.2, lex, random.Random(seed))
            # originals survive insertion: input multiset is contained
            ok = len(out) >= len(seq) and not Counter(seq) - Counter(out)
        elif op == 2:
            out = random_swap(seq, 0.2, random.Random(seed))
            again = random_swap(seq, 0.2, random.Random(seed))
            ok = Counter(out) == Counter(seq)
        elif op == 3:
            out = random_deletion(seq, 0.2, random.Random(seed))
            again = random_deletion(seq, 0.2, random.Random(seed))
            ok = 1 <= len(out) <= len(seq) and not Counter(out) - Counter(seq)
        elif op == 4:
            out = eda(seq, params, lex, random.Random(seed))
            again = eda(seq, params, lex, random.Random(seed))
            ok = len(out) >= 1
        else:
            out = aeda(seq, random.Random(seed))
            again = aeda(seq, random.Random(seed))
            k = len(out) - len(seq)
            recovered = [tok for tok in out if tok not in marks]
            ok = recovered == seq and 1 <= k <= max(1, len(seq) // 3)
        if not ok or out != again:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(2, failures == 0 and elapsed < 30.0, f"{failures} failures, {elapsed:.1f}s")


def test_criterion_03_uniform_dispatch_frequencies():
    # signature per suboperation: RI grows, RD (alpha 0) is identity,
    # SR introduces a synonym token, the remainder permutes (RS)
    tokens = [f"word{i}" for i in range(10)]
    lex = load_lexicon(
        io.BytesIO(
            "\n".join(f"word{i}\tsyn{i}a,syn{i}b" for i in range(10)).encode("utf-8")
        )
    )
    syn_tokens = {s for i in range(10) for s in (f"syn{i}a", f"syn{i}b")}
    params = AugmentationPolicy(
        p_aug=1.0, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
        alpha_sr=0.05, alpha_ri=0.05, alpha_rs=0.05, alpha_rd=0.0,
        n_aug=1, eps_ori=0.0, eps_aug=0.0,
    )
    start = time.perf_counter()
    counts = Counter()
    rng = random.Random(42)
    for _ in range(10_000):
        out = eda(tokens, params, lex, rng)
        if len(out) > 10:
            counts["ri"] += 1
        elif out == tokens:
            counts["rd"] += 1
        elif any(tok in syn_tokens for tok in out):
            counts["sr"] += 1
        else:
            counts["rs"] += 1
    elapsed = time.perf_counter() - start
    ok = all(0.24 <= counts[op] / 10_000 <= 0.26 for op in ("sr", "ri", "rs", "rd"))
    _report(3, ok and elapsed < 10.0, f"{dict(counts)}, {elapsed:.1f}s")


def test_criterion_04_rd_survival_rate():
    sentence = [f"tok{i}" for i in range(1000)]
    fractions = [
        len(random_deletion(sentence, 0.1, random.Random(seed))) / 1000
        for seed in range(100)
    ]
    mean = sum(fractions) / len(fractions)
    _report(4, 0.88 <= mean <= 0.92, f"mean surviving fraction {mean:.4f}")


def _count_policy(p_aug, n_aug):
    return AugmentationPolicy(
        p_aug=p_aug, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
        alpha_sr=0.1, alpha_ri=0.1, alpha_rs=0.1, alpha_rd=0.1,
        n_aug=n_aug, eps_ori=0.0, eps_aug=0.1,
    )


def test_criterion_05_apply_policy_count_law():
    split_100 = [(f"word{i % 10} extra thing", i % 2) for i in range(100)]
    out = apply_policy(split_100, 2, _count_policy(1.0, 2), LEX, random.Random(0))
    exact_ok = len(out) == 300

    split_1000 = [(f"word{i % 10} extra thing", i % 2) for i in range(1000)]
    sizes = [
        len(apply_policy(split_1000, 2, _count_policy(0.5, 4), LEX, random.Random(s)))
        for s in range(50)
    ]
    mean = sum(sizes) / len(sizes)
    _report(5, exact_ok and 2900 <= mean <= 3100, f"exact {len(out)}, mean {mean:.1f}")


def test_criterion_06_gradient_check():
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        logits = rng.normal(size=n)
        target = smooth_label(int(rng.integers(0, n)), n, float(rng.uniform(0.0, 0.5)))
        grad = soft_ce_gradient(logits, target)
        numeric = np.zeros(n)
        for i in range(n):
            up, down = logits.copy(), logits.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (
                soft_cross_entropy(softmax(up), target)
                - soft_cross_entropy(softmax(down), target)
            ) / (2 * h)
        rel = np.abs(grad - numeric).max() / max(np.abs(numeric).max(), 1e-8)
        worst = max(worst, rel)
    _report(6, worst < 1e-4, f"max relative error {worst:.2e}")


def _synthetic_score(p):
    return -((p.p_aug - 0.6) ** 2) - ((p.eps_aug - 0.2) ** 2)


def _run_tpe(cfg, seed):
    rng = random.Random(seed)
    history = []
    for t in range(cfg.n_trials):
        policy = suggest(history, SPACE, cfg, rng)
        score = _synthetic_score(policy)
        history.append(TrialRecord(policy, score, (score,), t, t))
    return max(r.score for r in history)


def _run_random(n_trials, seed):
    rng = random.Random(seed)
    return max(_synthetic_score(sample_policy(SPACE, rng)) for _ in range(n_trials))


def test_criterion_07_tpe_beats_random_paired():
    start = time.perf_counter()
    cfg = SearchConfig(n_trials=20, n_startup=5)
    wins = sum(
        1 for rep in range(20) if _run_tpe(cfg, 1000 + rep) >= _run_random(20, 2000 + rep)
    )
    elapsed = time.perf_counter() - start
    _report(7, wins >= 13 and elapsed < 60.0, f"{wins}/20 wins, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def trend_experiment(tmp_path_factory):
    cfg = ExperimentConfig(
        methods=("baseline", "softeda_fixed", "ours", "ours_no_ls"),
        seeds=(0, 1, 2, 3, 4),
        n_train=100,
        output_dir=str(tmp_path_factory.mktemp("trend")),
    )
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - start


def _cell(report, method):
    return next(c for c in report.cells if c.method == method)


def test_criterion_08_end_to_end_low_resource_trend(trend_experiment):
    report, elapsed = trend_experiment
    base = _cell(report, "baseline")
    ours = _cell(report, "ours")
    fixed = _cell(report, "softeda_fixed")
    paired_wins = sum(
        1 for a, b in zip(ours.per_seed, fixed.per_seed, strict=True) if a >= b
    )
    ok = (
        not report.incomplete
        and ours.mean >= base.mean
        and paired_wins >= 3
        and elapsed <= 900.0
    )
    _report(
        8,
        ok,
        f"ours {ours.mean:.2f} vs baseline {base.mean:.2f}, "
        f"{paired_wins}/5 paired wins vs softeda_fixed, {elapsed:.0f}s",
    )


def test_criterion_09_ablation_direction_report_and_flag(trend_experiment):
    report, _ = trend_experiment
    ours = _cell(report, "ours")
    no_ls = _cell(report, "ours_no_ls")
    within = ours.mean >= no_ls.mean - 0.5
    flag = "ok" if within else "FLAG: smoothing ablation margin exceeded"
    print(
        f"ACCEPTANCE 9: PASS (report-and-flag: ours {ours.mean:.2f}±{ours.std:.2f} "
        f"vs ours_no_ls {no_ls.mean:.2f}±{no_ls.std:.2f}; {flag})"
    )


def test_criterion_10_report_fidelity_golden():
    start = time.perf_counter()
    report = EvalReport(
        cells=[
            ReportCell("baseline", "sst2", 100, 80.46, 1.84, (80.0, 81.0)),
            ReportCell("ours", "sst2", 100, 85.48, 0.57, (85.0, 86.0)),
            ReportCell("eda", "sst2", 100, 79.90, 1.10, (79.0, 80.8)),
        ]
    )
    expected = (
        "method    sst2 (n=100)\n"
        "--------  ------------\n"
        "baseline  80.46±1.84\n"
        "ours      85.48±0.57 *\n"
        "eda       79.90±1.10 !\n"
        "\n"
        "cells: mean±std over seeds (sample std); * best mean in column; "
        "! below baseline\n"
    )
    ok = render_report(report) == expected
    elapsed = time.perf_counter() - start
    _report(10, ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_11_compare_reproducibility(tmp_path):
    out_dir = tmp_path / "run"
    cfg = {
        "methods": ["baseline", "eda", "aeda", "softeda_fixed"],
        "seeds": [0, 1],
        "n_train": 60,
        "train": {"max_epochs": 4, "patience": 4},
        "output_dir": str(out_dir),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    assert cli_main(["compare", "--config", str(cfg_path)]) == 0
    first = (out_dir / "report.json").read_bytes()
    (out_dir / "report.json").rename(tmp_path / "report_first.json")
    assert cli_main(["compare", "--config", str(cfg_path)]) == 0
    second = (out_dir / "report.json").read_bytes()
    _report(11, first == second, f"{len(first)} bytes, byte-identical")
