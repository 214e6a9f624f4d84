import hashlib
import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from softaug import harness, search
from softaug.classifier import TrainConfig, evaluate, train_runs
from softaug.datasets import LabeledDataset, make_synthetic_reviews
from softaug.errors import DomainError, TrainingError
from softaug.harness import (
    EvalReport,
    ExperimentConfig,
    FixedMethodParams,
    ReportCell,
    _fixed_policy,
    format_cell,
    render_report,
    run_experiment,
    run_method,
    seed_splits,
)
from softaug.policy import apply_policy
from softaug.search import SearchConfig
from softaug.textops import load_bundled_lexicon

LEX = load_bundled_lexicon()

# disjoint vocabularies: separable by a linear model
SEP_TRAIN = [(f"pos{i} pos{(i + 1) % 8}", 1) for i in range(8)] + [
    (f"neg{i} neg{(i + 1) % 8}", 0) for i in range(8)
]
SEP_VAL = [("pos0 pos1", 1), ("neg0 neg1", 0), ("pos4", 1), ("neg4", 0)]
SEP_TEST = [(f"pos{i}", 1) for i in range(8)] + [(f"neg{i}", 0) for i in range(8)]

FAST_CFG = ExperimentConfig(
    seeds=(0, 1),
    n_train=16,
    train=TrainConfig(max_epochs=3, patience=3),
    search=SearchConfig(n_trials=3, n_startup=2, runs_per_trial=1),
)


def cell_accuracy(method, test, seed):
    """A (method, seed) cell's test accuracy on the separable splits, trained
    and scored as run_experiment trains and scores it."""
    examples, rng = run_method(method, SEP_TRAIN, SEP_VAL, 2, LEX, FAST_CFG, seed)
    [(model, _)] = train_runs([examples], SEP_VAL, 2, FAST_CFG.train, [rng])
    return evaluate(model, test)


class TestRunMethod:
    def test_baseline_separable_perfect(self):
        assert cell_accuracy("baseline", SEP_TEST, 0) == 1.0

    def test_eda_and_baseline_emit_valid_accuracy(self):
        for method in ("eda", "aeda", "softeda_fixed"):
            assert 0.0 <= cell_accuracy(method, SEP_TEST, 0) <= 1.0

    def test_ours_no_ls_trial_log_all_zero_eps(self, tmp_path):
        run_method("ours_no_ls", SEP_TRAIN, SEP_VAL, 2, LEX, FAST_CFG, 0, tmp_path)
        lines = (tmp_path / "trials_ours_no_ls_seed0.jsonl").read_text().splitlines()
        assert len(lines) == FAST_CFG.search.n_trials
        for line in lines:
            policy = json.loads(line)["policy"]
            assert policy["eps_ori"] == 0.0 and policy["eps_aug"] == 0.0
        assert (tmp_path / "best_policy_ours_no_ls_seed0.json").exists()

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            run_method("magic", SEP_TRAIN, SEP_VAL, 2, LEX, FAST_CFG, 0)

    def test_returns_training_set_and_its_rng(self):
        # softeda_fixed: the originals, then n_aug copies of each, and the
        # rng that augmented them, to shuffle their training next
        examples, rng = run_method("softeda_fixed", SEP_TRAIN, SEP_VAL, 2, LEX, FAST_CFG, 0)
        assert len(examples) == len(SEP_TRAIN) * (1 + FAST_CFG.fixed.n_aug)
        assert [ex.text for ex in examples[: len(SEP_TRAIN)]] == [text for text, _ in SEP_TRAIN]
        fresh = random.Random(0)
        apply_policy(SEP_TRAIN, 2, _fixed_policy("softeda_fixed", FAST_CFG.fixed), LEX, fresh)
        assert rng.getstate() == fresh.getstate()

    @pytest.mark.parametrize(
        "method, expected",
        [
            # 16 examples in one 32-example batch: the steps are symmetric in
            # pos and neg, so every pair ties and argmax breaks to class 0
            ("baseline", (0.0, 0.0)),
            ("eda", (0.6875, 0.0)),
            ("softeda_fixed", (0.6875, 0.0)),
        ],
    )
    def test_fixed_method_golden_accuracies(self, method, expected):
        # every pos/neg pair labelled positive: the accuracy reads which learned
        # weights are larger, so it pins the exact training set and rng stream
        mixed = [(f"pos{i} neg{j}", 1) for i in range(8) for j in range(8)]
        assert tuple(cell_accuracy(method, mixed, seed) for seed in (0, 1)) == expected


def tiny_dataset_file(tmp_path, n=40):
    rng = random.Random(0)
    path = tmp_path / "tiny.jsonl"
    with open(path, "w") as f:
        for i in range(n):
            y = i % 2
            words = ["great", "fine", "lovely"] if y else ["awful", "boring", "bland"]
            text = " ".join(rng.choice(words) for _ in range(5))
            f.write(json.dumps({"text": text, "label": y, "split": "train"}) + "\n")
        for i in range(20):
            y = i % 2
            words = ["great", "fine", "lovely"] if y else ["awful", "boring", "bland"]
            text = " ".join(rng.choice(words) for _ in range(5))
            f.write(json.dumps({"text": text, "label": y, "split": "test"}) + "\n")
    return path


class TestRunExperiment:
    def test_aggregation_and_artifacts(self, tmp_path):
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline", "eda"),
            seeds=(0, 1, 2),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
            output_dir=str(tmp_path / "out"),
        )
        report = run_experiment(cfg)
        assert not report.incomplete
        for cell in report.cells:
            assert len(cell.per_seed) == 3
            mean = sum(cell.per_seed) / 3
            assert abs(cell.mean - mean) <= 1e-9
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_byte_identical_reports(self, tmp_path):
        data = tiny_dataset_file(tmp_path)
        outputs = []
        for run in ("a", "b"):
            cfg = ExperimentConfig(
                dataset_path=str(data),
                methods=("baseline", "eda"),
                seeds=(0, 1),
                n_train=20,
                train=TrainConfig(max_epochs=2, patience=2),
                output_dir=str(tmp_path / run),
            )
            run_experiment(cfg)
            outputs.append((tmp_path / run / "report.json").read_bytes())
        assert outputs[0] == outputs[1]

    # sha256 of every file of a six-method, two-seed run on the bundled
    # surrogate: pins the searched methods' accuracies, trial logs and best
    # policies along with the fixed methods'
    SIX_METHOD_GOLDEN = {
        "best_policy_ours_no_ls_seed0.json": "8d31b07129301fa33943dce8454be772b8fea005d2be03e8f8f3793fbcfc7a7b",
        "best_policy_ours_no_ls_seed1.json": "05f76addd12135d8fb0be5f246e8114d6d8fe8ea266f117dd28e7640700cf6c5",
        "best_policy_ours_seed0.json": "f440c1425827e0dd49cd6adc4f00cef7f5a4403591a4e95d00c61b053a4f6e4f",
        "best_policy_ours_seed1.json": "8099b1f65b34316e13b1cc979d94fc81d7058a815e8758bdbf45fc5d2f356b00",
        "report.json": "f623d725f813f7db77c91a3dcda3ffa0d69d2738f9f8b9a6dd662de60f8fac4d",
        "report.txt": "8a8550696d6d6fdb267f84462a9a1d1592a8fa7e24b4ee4c9df11002d0ab4e9a",
        "trials_ours_no_ls_seed0.jsonl": "318d1949b45de653091d3752bc656fd4e924854f28ee057125da5258ce545e1a",
        "trials_ours_no_ls_seed1.jsonl": "9220157d6140421424d8dbf5952bc11293baad980304805edd899fd208faa1c8",
        "trials_ours_seed0.jsonl": "1e7d8f00d6c9c88baf474160ffe329fe8ccd7d9c3d7b61ee950027cfa80c002f",
        "trials_ours_seed1.jsonl": "7dc041446b60686962e7ef9356ae109dcb72e1c8397cd548e7882833899200e8",
    }

    def test_six_method_golden(self, tmp_path):
        cfg = ExperimentConfig(
            n_train=40,
            seeds=(0, 1),
            train=TrainConfig(max_epochs=4, patience=4),
            search=SearchConfig(n_trials=3, n_startup=2),
            output_dir=str(tmp_path),
        )
        run_experiment(cfg)
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert digests == self.SIX_METHOD_GOLDEN

    def test_failed_cell_writes_traceback(self, tmp_path, monkeypatch):
        calls = []

        def train_runs_failing_eda_seed0(runs, *args):
            fits = real_train_runs(runs, *args)
            calls.append(runs)
            if len(calls) == 1:  # seed 0; its runs are baseline's and eda's
                fits[1] = TrainingError("forced failure")
            return fits

        real_train_runs = harness.train_runs
        monkeypatch.setattr(harness, "train_runs", train_runs_failing_eda_seed0)
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline", "eda"),
            seeds=(0, 1),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
            output_dir=str(out),
        )
        report = run_experiment(cfg)
        assert report.incomplete
        assert [c.failed_seeds for c in report.cells] == [(), (0,)]
        failure = (out / "failure_eda_seed0.txt").read_text()
        assert failure.startswith("Traceback (most recent call last):")
        assert "in run_experiment" in failure
        assert failure.endswith("TrainingError: forced failure\n")
        # the traceback stays out of the report
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert (out / "report.json").read_text() == expected
        assert sorted(f.name for f in out.glob("failure_*")) == ["failure_eda_seed0.txt"]

    def test_clean_rerun_removes_earlier_failures(self, tmp_path, monkeypatch):
        # a run whose eda cell failed on seed 0, then a clean run into the
        # same directory: the rerun owns every failure_<method>_seed<seed>
        # name of its config, so the old traceback does not outlive it
        def train_runs_failing_eda_seed0(runs, *args):
            fits = real_train_runs(runs, *args)
            fits[1] = TrainingError("forced failure")
            return fits

        real_train_runs = harness.train_runs
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline", "eda"),
            seeds=(0,),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
            output_dir=str(out),
        )
        with monkeypatch.context() as m:
            m.setattr(harness, "train_runs", train_runs_failing_eda_seed0)
            assert run_experiment(cfg).incomplete
        (out / "failure_eda_seed1.txt").write_text("not this config's\n")
        report = run_experiment(cfg)
        assert not report.incomplete
        assert [f.name for f in out.glob("failure_*")] == ["failure_eda_seed1.txt"]
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert (out / "report.json").read_text() == expected

    def test_stopped_search_rerun_leaves_no_earlier_policy(self, tmp_path, monkeypatch):
        # a complete run, then a rerun whose ours search stops on its second
        # trial: the cell fails, and its earlier best policy does not outlive
        # the new partial log
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline", "ours"),
            seeds=(0,),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
            search=SearchConfig(n_trials=3, n_startup=2, runs_per_trial=1),
            output_dir=str(out),
        )
        assert not run_experiment(cfg).incomplete
        assert (out / "best_policy_ours_seed0.json").exists()
        (out / "best_policy_ours_seed9.json").write_text("not this config's\n")

        def objective_failing_trial_2(*args):
            if next(calls) == 1:
                raise TrainingError("forced failure")
            return real_objective(*args)

        calls, real_objective = itertools.count(), search.objective
        monkeypatch.setattr(search, "objective", objective_failing_trial_2)
        report = run_experiment(cfg)
        assert [c.failed_seeds for c in report.cells] == [(), (0,)]
        assert sorted(f.name for f in out.iterdir()) == [
            "best_policy_ours_seed9.json", "failure_ours_seed0.txt", "report.json", "report.txt",
            "trials_ours_seed0.jsonl",
        ]
        assert len((out / "trials_ours_seed0.jsonl").read_text().splitlines()) == 1
        assert (out / "best_policy_ours_seed9.json").read_text() == "not this config's\n"

    def test_aborted_rerun_leaves_no_earlier_report(self, tmp_path, monkeypatch):
        # an error that is not a SoftAugError aborts the run after the
        # cleanup: no report of the earlier run is left to read as this one's
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline",),
            seeds=(0,),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
            output_dir=str(out),
        )
        run_experiment(cfg)
        assert (out / "report.json").exists() and (out / "report.txt").exists()
        (out / "best_policy_ours_seed9.json").write_text("not this config's\n")

        def train_runs_with_a_bug(*args):
            raise RuntimeError("a bug")

        monkeypatch.setattr(harness, "train_runs", train_runs_with_a_bug)
        with pytest.raises(RuntimeError, match="a bug"):
            run_experiment(cfg)
        assert [f.name for f in out.iterdir()] == ["best_policy_ours_seed9.json"]

    def test_aborted_rerun_leaves_no_earlier_search_files(self, tmp_path, monkeypatch):
        # a complete two-seed run, then a rerun that aborts in seed 0's final
        # training, after seed 0's search: seed 1's search files from the
        # first run must not be left beside seed 0's new ones
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline", "ours"),
            seeds=(0, 1),
            n_train=40,
            train=TrainConfig(max_epochs=2, patience=2),
            search=SearchConfig(n_trials=2, n_startup=1, runs_per_trial=1),
            output_dir=str(out),
        )
        run_experiment(cfg)
        assert (out / "best_policy_ours_seed1.json").exists() and (out / "trials_ours_seed1.jsonl").exists()
        (out / "best_policy_ours_seed9.json").write_text("not this config's\n")

        def train_runs_with_a_bug(*args):
            raise RuntimeError("a bug")

        monkeypatch.setattr(harness, "train_runs", train_runs_with_a_bug)
        with pytest.raises(RuntimeError, match="a bug"):
            run_experiment(cfg)
        assert sorted(f.name for f in out.iterdir()) == [
            "best_policy_ours_seed0.json", "best_policy_ours_seed9.json", "trials_ours_seed0.jsonl",
        ]
        assert (out / "best_policy_ours_seed9.json").read_text() == "not this config's\n"

    # sha256 of (report.json, report.txt) with eda failing on seed 0 and
    # softeda_fixed on every seed: pins a partly failed cell, a "failed"
    # cell with its NaN mean, the WARNING line and the incomplete flag
    FAILED_REPORT_GOLDEN = (
        "a4ca595b86083e89d2e7fa7c8835424726b60e7350d0c8ca0d941f0eefc8615f",
        "b4bc6379a63f12d48c7726df0ca69a68f99dd74f19d64de5f7e474c27669fb20",
    )

    def test_failed_cells_report_golden(self, tmp_path, monkeypatch):
        calls = []

        def train_runs_failing(runs, *args):
            fits = real_train_runs(runs, *args)
            calls.append(runs)
            # the runs are baseline's, eda's and softeda_fixed's
            for i in {1: (1, 2), 2: (2,)}[len(calls)]:  # seed 0, then seed 1
                fits[i] = TrainingError("forced failure")
            return fits

        real_train_runs = harness.train_runs
        monkeypatch.setattr(harness, "train_runs", train_runs_failing)
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline", "eda", "softeda_fixed"),
            seeds=(0, 1),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
            output_dir=str(out),
        )
        run_experiment(cfg)
        digests = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("report.json", "report.txt")
        )
        assert digests == self.FAILED_REPORT_GOLDEN

    def test_diverging_method_fails_only_its_cell(self, tmp_path, monkeypatch):
        # eda's seed-0 set gets a NaN soft label, so its final training goes
        # non-finite inside the seed's one joint call, next to the others'
        def run_method_nan_eda_seed0(method, *args):
            examples, rng = real_run_method(method, *args)
            if (method, args[5]) == ("eda", 0):
                examples[0] = replace(examples[0], soft_label=np.full(2, np.nan))
            return examples, rng

        def run(out, patch):
            with monkeypatch.context() as m:
                if patch:
                    m.setattr(harness, "run_method", run_method_nan_eda_seed0)
                return run_experiment(replace(cfg, output_dir=str(out)))

        real_run_method = harness.run_method
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline", "eda", "aeda", "softeda_fixed"),
            seeds=(0, 1),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
        )
        clean = {c.method: c for c in run(tmp_path / "clean", False).cells}
        diverged = {c.method: c for c in run(tmp_path / "diverged", True).cells}
        assert diverged["eda"].failed_seeds == (0,)
        assert diverged["eda"].per_seed == clean["eda"].per_seed[1:]
        for method in ("baseline", "aeda", "softeda_fixed"):
            assert diverged[method] == clean[method]
        out = tmp_path / "diverged"
        assert sorted(f.name for f in out.glob("failure_*")) == ["failure_eda_seed0.txt"]
        failure = (out / "failure_eda_seed0.txt").read_text()
        assert failure.endswith("TrainingError: non-finite training loss at epoch 1\n")

    def test_every_cell_failing_before_training(self, tmp_path, monkeypatch):
        # no set survives to train, so the seed makes no training call
        def run_method_failing(method, *args):
            raise TrainingError(f"{method} search diverged")

        monkeypatch.setattr(harness, "run_method", run_method_failing)
        monkeypatch.setattr(harness, "train_runs", None)
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("ours", "ours_no_ls"),
            seeds=(0, 1),
            n_train=20,
            output_dir=str(out),
        )
        report = run_experiment(cfg)
        assert [(c.per_seed, c.failed_seeds) for c in report.cells] == [((), (0, 1))] * 2
        assert len(list(out.glob("failure_*"))) == 4
        assert (out / "failure_ours_seed1.txt").read_text().endswith("TrainingError: ours search diverged\n")

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only package errors become failed cells; anything else is a bug
        def train_runs_type_error(*args):
            raise TypeError("forced bug")

        monkeypatch.setattr(harness, "train_runs", train_runs_type_error)
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            dataset_path=str(tiny_dataset_file(tmp_path)),
            methods=("baseline",),
            seeds=(0,),
            n_train=20,
            train=TrainConfig(max_epochs=2, patience=2),
            output_dir=str(out),
        )
        with pytest.raises(TypeError, match="forced bug"):
            run_experiment(cfg)
        assert list(out.glob("failure_*")) == []

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(seeds=())
        with pytest.raises(DomainError):
            ExperimentConfig(methods=("nope",))
        with pytest.raises(DomainError, match="methods"):
            ExperimentConfig.from_dict({"methods": ["baseline", "baseline"]})
        for n_train in ("x", 0, 2.5, None, True):
            with pytest.raises(DomainError, match="n_train"):
                ExperimentConfig(n_train=n_train)
        for seeds in (("a",), (0, 1.5), (None,), (True,), (0, False)):
            with pytest.raises(DomainError, match="seeds"):
                ExperimentConfig(seeds=seeds)
        for val_fraction in ("x", None, 0, 1, 1.5, float("nan"), True, "0.2"):
            with pytest.raises(DomainError, match="val_fraction"):
                ExperimentConfig(val_fraction=val_fraction)

    @pytest.mark.parametrize(
        "params, field_name",
        [({"alpha": 0.6}, "alpha"), ({"n_aug": 0}, "n_aug"), ({"eps_aug": 0.95}, "eps_aug")],
    )
    def test_fixed_params_validated(self, params, field_name):
        # baseline and aeda run as policies too, so their values are bounded
        with pytest.raises(DomainError, match=f"fixed.{field_name}"):
            ExperimentConfig.from_dict({"methods": ["baseline", "aeda"], "fixed": params})

    def test_config_from_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict(
            {
                "n_train": 50,
                "methods": ["baseline"],
                "seeds": [1, 2],
                "fixed": {"alpha": 0.2, "n_aug": 2, "eps_aug": 0.15},
                "search": {"n_trials": 4, "n_startup": 2},
                "space": {"p_aug": [0.2, 0.9], "n_aug_choices": [1, 2]},
                "train": {"max_epochs": 5},
            }
        )
        assert cfg.fixed == FixedMethodParams(alpha=0.2, n_aug=2, eps_aug=0.15)
        assert cfg.search.n_trials == 4
        assert cfg.space.p_aug == (0.2, 0.9)
        assert cfg.train.max_epochs == 5


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"cells": []}\n', encoding="utf-8")
        with pytest.raises(OSError, match="No space"):
            with harness._atomic_write(path) as f:
                f.write(b'{"cells": [1]}\n'[:5])  # the disk runs out after 5 bytes
                raise OSError(28, "No space left on device")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert path.read_bytes() == b'{"cells": []}\n'


class TestSeedSplits:
    # sha256 of json.dumps([train, val]) for each seed's splits of the
    # bundled surrogate at n_train=100
    GOLDEN = {
        0: "2d5572010517aaa918c59711621cac83b9d42e1a948eea54b4f15418d57049c7",
        1: "dfdfa98ee4e5fe0abe20d76cfd301dac0e964d836c87d4f9dd1145fed9c4d666",
        2: "0df9c18674bb58285a622420423ab3f2f012a87856daffeabcbec477b852c4f2",
        3: "6caf68d86feb9c1c488ae77c762cb1ef70735dc3c2d69c738667586110392f03",
        4: "b43e5e51dd094a4a96b38ed1c883c295cf57073eef4db87f720ac5d648618404",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden(self, seed):
        tr, val = seed_splits(make_synthetic_reviews(), ExperimentConfig(n_train=100), seed)
        assert len(tr) == 80 and len(val) == 20
        assert hashlib.sha256(json.dumps([tr, val]).encode()).hexdigest() == self.GOLDEN[seed]


def report_fixture():
    cells = [
        ReportCell("baseline", "sst2", 100, 80.46, 1.84, (80.0, 81.0)),
        ReportCell("ours", "sst2", 100, 85.48, 0.57, (85.0, 86.0)),
        ReportCell("eda", "sst2", 100, 79.90, 1.10, (79.0, 80.8)),
    ]
    return EvalReport(cells=cells)


class TestRenderReport:
    def test_mean_std_cell_format(self):
        assert format_cell(85.48, 0.57) == "85.48±0.57"
        assert format_cell(80.46, 1.84) == "80.46±1.84"

    def test_golden_table(self):
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
        assert render_report(report_fixture()) == expected

    def test_single_cell_report(self):
        report = EvalReport(cells=[ReportCell("baseline", "d", 100, 50.0, 0.0, (50.0,))])
        text = render_report(report)
        assert "50.00±0.00 *" in text

    @pytest.mark.parametrize("columns", [(), (("a", 100), ("b", 100)), (("a", 100), ("a", 50))])
    def test_one_column_or_error(self, columns):
        # a run makes one (dataset, n_train) column; anything else is not a run's report
        cells = [
            ReportCell(method, dataset, n_train, 50.0, 0.0, (50.0,))
            for method, (dataset, n_train) in zip(("baseline", "eda"), columns)
        ]
        with pytest.raises(DomainError, match=r"one \(dataset, n_train\) column"):
            render_report(EvalReport(cells))

    def test_tied_best_both_marked(self):
        report = EvalReport(
            cells=[
                ReportCell("baseline", "d", 100, 70.0, 1.0, (70.0,)),
                ReportCell("eda", "d", 100, 70.0, 2.0, (70.0,)),
            ]
        )
        text = render_report(report)
        assert text.count("*") >= 3  # legend plus both tied cells
