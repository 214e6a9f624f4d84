import hashlib
import json
import random

import pytest

from softaug import harness
from softaug.classifier import TrainConfig
from softaug.datasets import LabeledDataset, make_synthetic_reviews
from softaug.errors import DomainError, TrainingError
from softaug.harness import (
    EvalReport,
    ExperimentConfig,
    FixedMethodParams,
    ReportCell,
    format_cell,
    render_report,
    run_experiment,
    run_method,
    seed_splits,
)
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


class TestRunMethod:
    def test_baseline_separable_perfect(self):
        acc = run_method("baseline", SEP_TRAIN, SEP_VAL, SEP_TEST, 2, LEX, FAST_CFG, 0)
        assert acc == 1.0

    def test_eda_and_baseline_emit_valid_accuracy(self):
        for method in ("eda", "aeda", "softeda_fixed"):
            acc = run_method(method, SEP_TRAIN, SEP_VAL, SEP_TEST, 2, LEX, FAST_CFG, 0)
            assert 0.0 <= acc <= 1.0

    def test_ours_no_ls_trial_log_all_zero_eps(self, tmp_path):
        run_method(
            "ours_no_ls", SEP_TRAIN, SEP_VAL, SEP_TEST, 2, LEX, FAST_CFG, 0, tmp_path
        )
        lines = (tmp_path / "trials_ours_no_ls_seed0.jsonl").read_text().splitlines()
        assert len(lines) == FAST_CFG.search.n_trials
        for line in lines:
            policy = json.loads(line)["policy"]
            assert policy["eps_ori"] == 0.0 and policy["eps_aug"] == 0.0
        assert (tmp_path / "best_policy_ours_no_ls_seed0.json").exists()

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            run_method("magic", SEP_TRAIN, SEP_VAL, SEP_TEST, 2, LEX, FAST_CFG, 0)

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
        got = tuple(
            run_method(method, SEP_TRAIN, SEP_VAL, mixed, 2, LEX, FAST_CFG, seed)
            for seed in (0, 1)
        )
        assert got == expected


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

    def test_failed_cell_writes_traceback(self, tmp_path, monkeypatch):
        calls = []

        def train_failing_second_call(*args):
            calls.append(args)
            if len(calls) == 2:  # seed 0, method eda
                raise TrainingError("forced failure")
            return real_train(*args)

        real_train = harness.train
        monkeypatch.setattr(harness, "train", train_failing_second_call)
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
        assert "in train_failing_second_call" in failure
        assert failure.endswith("TrainingError: forced failure\n")
        # the traceback stays out of the report
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert (out / "report.json").read_text() == expected
        assert sorted(f.name for f in out.glob("failure_*")) == ["failure_eda_seed0.txt"]

    # sha256 of (report.json, report.txt) with eda failing on seed 0 and
    # softeda_fixed on every seed: pins a partly failed cell, a "failed"
    # cell with its NaN mean, the WARNING line and the incomplete flag
    FAILED_REPORT_GOLDEN = (
        "a4ca595b86083e89d2e7fa7c8835424726b60e7350d0c8ca0d941f0eefc8615f",
        "b4bc6379a63f12d48c7726df0ca69a68f99dd74f19d64de5f7e474c27669fb20",
    )

    def test_failed_cells_report_golden(self, tmp_path, monkeypatch):
        calls = []

        def train_failing(*args):
            calls.append(args)
            if len(calls) in (2, 3, 6):  # seed 0: eda, softeda_fixed; seed 1: softeda_fixed
                raise TrainingError("forced failure")
            return real_train(*args)

        real_train = harness.train
        monkeypatch.setattr(harness, "train", train_failing)
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

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only package errors become failed cells; anything else is a bug
        def train_type_error(*args):
            raise TypeError("forced bug")

        monkeypatch.setattr(harness, "train", train_type_error)
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
