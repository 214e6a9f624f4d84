import hashlib
import json
import random

import numpy as np
import pytest

from softaug import cli
from softaug.classifier import load_model, save_model
from softaug.cli import main
from softaug.errors import TrainingError
from softaug.policy import AugmentationPolicy

POLICY = AugmentationPolicy(
    p_aug=1.0, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
    alpha_sr=0.1, alpha_ri=0.1, alpha_rs=0.1, alpha_rd=0.1,
    n_aug=2, eps_ori=0.0, eps_aug=0.1,
)


@pytest.fixture
def dataset(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "data.jsonl"
    with open(path, "w") as f:
        for i in range(60):
            y = i % 2
            words = ["great", "fine", "lovely", "movie"] if y else ["awful", "boring", "bland", "plot"]
            row = {"text": " ".join(rng.choice(words) for _ in range(6)), "label": y}
            f.write(json.dumps(row) + "\n")
        for i in range(20):
            y = i % 2
            words = ["great", "fine", "lovely", "movie"] if y else ["awful", "boring", "bland", "plot"]
            row = {
                "text": " ".join(rng.choice(words) for _ in range(6)),
                "label": y,
                "split": "test",
            }
            f.write(json.dumps(row) + "\n")
    return path


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(POLICY.to_json())
    return path


class TestAugmentCommand:
    def test_writes_jsonl(self, dataset, policy_file, tmp_path, capsys):
        out = tmp_path / "aug.jsonl"
        code = main([
            "augment", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 60 * 3  # originals + n_aug=2 copies each
        for row in rows:
            assert set(row) == {"text", "soft_label", "provenance", "source_index"}
            assert row["provenance"] in ("original", "eda-augmented")
            assert abs(sum(row["soft_label"]) - 1.0) <= 1e-9

    def test_missing_file_is_data_error(self, policy_file, tmp_path):
        code = main([
            "augment", "--input", str(tmp_path / "nope.jsonl"), "--policy",
            str(policy_file), "--seed", "1", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, name", [("--input", "bad.csv"), ("--lexicon", "bad.tsv"), ("--policy", "bad.json")]
    )
    def test_non_utf8_file_is_data_error(self, dataset, policy_file, tmp_path, capsys, flag, name):
        bad = tmp_path / name
        bad.write_bytes(b"text,label\n\xff,0\n")
        args = {"--input": str(dataset), "--policy": str(policy_file), flag: str(bad)}
        argv = ["augment", *[x for pair in args.items() for x in pair]]
        assert main(argv + ["--seed", "0", "--output", str(tmp_path / "o.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    def test_non_numeric_policy_field_is_domain_error(self, dataset, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(dict(POLICY.to_dict(), p_aug="x")))
        code = main([
            "augment", "--input", str(dataset), "--policy", str(policy),
            "--seed", "0", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2
        assert "p_aug: 'x' is not a number" in capsys.readouterr().err

    def test_boolean_n_aug_is_domain_error(self, dataset, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(dict(POLICY.to_dict(), n_aug=True)))
        code = main([
            "augment", "--input", str(dataset), "--policy", str(policy),
            "--seed", "0", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2
        assert "n_aug: True must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_boolean_real_fields_are_domain_error(self, dataset, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(dict(POLICY.to_dict(), p_aug=True, eps_ori=False)))
        code = main([
            "augment", "--input", str(dataset), "--policy", str(policy),
            "--seed", "0", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "p_aug: True is not a number" in err and "eps_ori: False is not a number" in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_usage_error(self):
        assert main(["augment", "--seed", "1"]) == 1
        assert main(["frobnicate"]) == 1


class TestExitCodes:
    def test_training_error_is_exit_3(self, monkeypatch, capsys):
        def diverge(args):
            raise TrainingError("non-finite training loss at epoch 1")

        monkeypatch.setitem(cli._COMMANDS, "eval", diverge)
        assert main(["eval", "--model", "m.npz", "--input", "d.csv"]) == 3
        assert capsys.readouterr().err == "error: non-finite training loss at epoch 1\n"

    def test_other_runtime_errors_propagate(self, monkeypatch):
        # exit 3 means a training error; a bug surfaces with its traceback
        def unfinished(args):
            raise NotImplementedError("unfinished command")

        monkeypatch.setitem(cli._COMMANDS, "eval", unfinished)
        with pytest.raises(NotImplementedError, match="unfinished command"):
            main(["eval", "--model", "m.npz", "--input", "d.csv"])


class TestSearchCommand:
    def test_writes_best_policy_and_trials(self, dataset, tmp_path):
        out = tmp_path / "searchout"
        code = main([
            "search", "--input", str(dataset), "--n-train", "40", "--trials", "3",
            "--seed", "0", "--output", str(out),
        ])
        assert code == 0
        best = json.loads((out / "best_policy.json").read_text())
        AugmentationPolicy.from_dict(best)  # parses as a full policy
        trials = [json.loads(l) for l in (out / "trials.jsonl").read_text().splitlines()]
        assert len(trials) == 3

    def test_no_label_smoothing_flag(self, dataset, tmp_path):
        out = tmp_path / "searchout2"
        code = main([
            "search", "--input", str(dataset), "--n-train", "40", "--trials", "3",
            "--seed", "0", "--no-label-smoothing", "--output", str(out),
        ])
        assert code == 0
        best = json.loads((out / "best_policy.json").read_text())
        assert best["eps_ori"] == 0.0 and best["eps_aug"] == 0.0

    # sha256 of (trials.jsonl, best_policy.json): any change to the splits,
    # the search's draws or the trainer's arithmetic shows here
    GOLDEN = {
        (): (
            "c596728ca08327b89eda93d28b868297b8dbdc1c2c47794b91d5774a4776209a",
            "323a481ac43265b82ae87a7ddcad4223a0b6c88ee48e31ef7786d9e410177104",
        ),
        ("--no-label-smoothing",): (
            "fd96fb1c62d59ab8d25fd4b8ca93161d7ee627ff562cd1118d01058798d11ef0",
            "70bde34c4a1b2a585f5ede48ec759da208f4b4c2ec2dc26e10cfa46825b1c01d",
        ),
    }

    @pytest.mark.parametrize("flags", sorted(GOLDEN))
    def test_outputs_golden(self, dataset, tmp_path, capsys, flags):
        out = tmp_path / "searchout"
        code = main([
            "search", "--input", str(dataset), "--n-train", "40", "--trials", "3",
            "--seed", "0", *flags, "--output", str(out),
        ])
        assert code == 0
        digests = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("trials.jsonl", "best_policy.json")
        )
        assert digests == self.GOLDEN[flags]

    def test_missing_lexicon_writes_nothing(self, dataset, tmp_path, capsys):
        out = tmp_path / "searchout"
        code = main([
            "search", "--input", str(dataset), "--lexicon", str(tmp_path / "nope.tsv"),
            "--n-train", "40", "--trials", "3", "--seed", "0", "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()  # no empty trials.jsonl left behind


class TestTrainEvalCommands:
    def test_train_then_eval(self, dataset, policy_file, tmp_path, capsys):
        model = tmp_path / "model.bin"
        assert main([
            "train", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "0", "--output", str(model),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--input", str(dataset)]) == 0
        acc = float(capsys.readouterr().out.strip())
        assert 0.0 <= acc <= 1.0

    # sha256 of the checkpoint's weights and bias, then the train and eval
    # stdout, for seed 0 on this dataset (the holdout comes from make_val_split)
    TRAIN_EVAL_GOLDEN = (
        "a8618d3222827d6be882f08c5d42c56976848bfae535ce65ef7aa29691b54cb0",
        "trained 6 epochs, best val accuracy 1.0000 -> MODEL\n",
        "1.0000\n",
    )

    def test_train_eval_golden(self, dataset, policy_file, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert main([
            "train", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "0", "--output", str(model),
        ]) == 0
        trained = capsys.readouterr().out.replace(str(model), "MODEL")
        assert main(["eval", "--model", str(model), "--input", str(dataset)]) == 0
        m = load_model(model)
        digest = hashlib.sha256(m.weights.tobytes() + m.bias.tobytes()).hexdigest()
        assert (digest, trained, capsys.readouterr().out) == self.TRAIN_EVAL_GOLDEN

    def test_eval_malformed_checkpoint_is_data_error(self, dataset, tmp_path, capsys):
        model = tmp_path / "model.npz"
        np.savez_compressed(
            model, version=np.int64(1), n_class=np.int64(2),
            weights=np.zeros((2, 10)), bias=np.zeros(2),
        )
        assert main(["eval", "--model", str(model), "--input", str(dataset)]) == 2
        assert "do not fit" in capsys.readouterr().err

    def test_eval_label_outside_model_classes_is_domain_error(
        self, dataset, policy_file, tmp_path, capsys
    ):
        model = tmp_path / "model.npz"
        assert main([
            "train", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "0", "--output", str(model),
        ]) == 0
        three = tmp_path / "three.jsonl"
        three.write_text("".join(
            json.dumps({"text": "fine movie", "label": f"c{i % 3}", "split": "test"}) + "\n"
            for i in range(6)
        ))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--input", str(three)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "three.jsonl row 1: unknown label 'c0'" in captured.err
        # a checkpoint without label names maps the file's labels by first
        # appearance, and the third one is outside the model's classes
        unnamed = load_model(model)
        unnamed.labels = None
        save_model(unnamed, model)
        assert main(["eval", "--model", str(model), "--input", str(three)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "label 2 is outside [0, 2): the model has 2 classes" in captured.err

    def test_eval_accuracy_does_not_depend_on_row_order(self, dataset, policy_file, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert main([
            "train", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "0", "--output", str(model),
        ]) == 0
        # the fixture's 20 test rows start with label 0; reversed, with label 1
        rows = dataset.read_text().splitlines(keepends=True)[60:]
        outputs = []
        for name, lines in [("zero_first.jsonl", rows), ("one_first.jsonl", rows[::-1])]:
            (tmp_path / name).write_text("".join(lines))
            capsys.readouterr()
            assert main(["eval", "--model", str(model), "--input", str(tmp_path / name)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == ["1.0000\n", "1.0000\n"]

    def test_malformed_label_sidecar_is_data_error(self, dataset, policy_file, tmp_path):
        (tmp_path / "data.jsonl.labels.json").write_text("[0, 1")
        code = main([
            "augment", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "0", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2

    def test_null_jsonl_text_is_data_error(self, policy_file, tmp_path, capsys):
        data = tmp_path / "nulls.jsonl"
        data.write_text('{"text": "fine movie", "label": 1}\n{"text": null, "label": 0}\n')
        code = main([
            "augment", "--input", str(data), "--policy", str(policy_file),
            "--seed", "0", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2
        assert "nulls.jsonl line 2: text None is not a string" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_bad_policy_file(self, dataset, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main([
            "train", "--input", str(dataset), "--policy", str(bad),
            "--seed", "0", "--output", str(tmp_path / "m.bin"),
        ])
        assert code == 2


class TestCompareCommand:
    def test_full_run(self, dataset, tmp_path, capsys):
        config = {
            "dataset_path": str(dataset),
            "methods": ["baseline", "eda"],
            "seeds": [0, 1],
            "n_train": 40,
            "train": {"max_epochs": 2, "patience": 2},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(cfg_path)]) == 0
        printed = capsys.readouterr().out
        assert "baseline" in printed and "±" in printed
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert {c["method"] for c in report["cells"]} == {"baseline", "eda"}

    def test_one_label_dataset_is_data_error(self, policy_file, tmp_path, capsys):
        # every cell would fail alike, so the run stops before any cell runs
        path = tmp_path / "one.jsonl"
        with open(path, "w") as f:
            for i in range(40):
                row = {"text": f"fine movie {i}", "label": "pos", "split": "test" if i >= 30 else "train"}
                f.write(json.dumps(row) + "\n")
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"dataset_path": str(path), "n_train": 20, "output_dir": str(out)}))
        assert main(["compare", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dataset 'one' has 1 class; a comparison needs at least 2\n"
        assert not out.exists()
        # train and search reject the same file with the same exit code
        args = ["--input", str(path), "--seed", "0", "--output", str(tmp_path / "m")]
        assert main(["train", "--policy", str(policy_file), *args]) == 2
        assert main(["search", "--n-train", "20", "--trials", "2", *args]) == 2

    def test_train_seed_key_rejected(self, tmp_path):
        # TrainConfig has no seed: training randomness comes from the cell seeds
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"train": {"seed": 3}}))
        assert main(["compare", "--config", str(path)]) == 2

    def test_fixed_alpha_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"methods": ["baseline"], "fixed": {"alpha": 0.6}}))
        assert main(["compare", "--config", str(path)]) == 2

    def test_bad_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["compare", "--config", str(path)]) == 2

    def test_non_utf8_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"methods": ["\xff"]}')
        assert main(["compare", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and "bad.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"space": {"p_aug": ["x", 1]}}, "p_aug"),
            ({"space": {"p_aug": [1]}}, "p_aug"),
            ({"space": {"n_aug_choices": ["a"]}}, "n_aug_choices"),
            ({"n_train": "x"}, "n_train"),
            ({"space": {"eps_aug": [0.8, 0.95]}}, "eps_aug"),
            ({"space": {"n_aug_choices": [0]}}, "n_aug_choices"),
            ({"space": 5}, "space"),
            ({"space": [1]}, "space"),
            ({"val_fraction": "x"}, "val_fraction"),
            ({"seeds": ["a"]}, "seeds"),
            ({"output_dir": 5}, "output_dir"),
            ({"dataset_path": 5}, "dataset_path"),
            ({"lexicon_path": 5}, "lexicon_path"),
            ({"dataset_format": 5}, "dataset_format"),
            ({"methods": []}, "methods"),
            ({"train": {"batch_size": 2.5}}, "batch_size"),
            ({"train": {"max_epochs": 2.5}}, "max_epochs"),
            ({"search": {"n_trials": 2.5}}, "n_trials"),
            ({"search": {"runs_per_trial": 1.5}}, "runs_per_trial"),
            ({"train": {"learning_rate": float("nan")}}, "learning_rate"),
            ({"train": {"learning_rate": float("inf")}}, "learning_rate"),
            ({"train": {"batch_size": True}}, "batch_size"),
            ({"seeds": [True]}, "seeds"),
            ({"space": {"n_aug_choices": [True]}}, "n_aug_choices"),
            ({"train": {"learning_rate": True}}, "learning_rate"),
            ({"space": {"p_aug": ["0.2", True]}}, "p_aug"),
            ({"space": {"p_aug": [0.2, True]}}, "p_aug"),
            ({"search": {"gamma": "x"}}, "gamma"),
            ({"search": {"gamma": True}}, "gamma"),
            ({"val_fraction": True}, "val_fraction"),
            ({"methods": ["baseline", "baseline"]}, "methods"),
            # a top level that is not an object: the whole document
            ("abc", "config"),
            ([], "config"),
            ([["n_train", 7]], "config"),
            # a field of the wrong JSON shape, named before anything reads it
            ({"seeds": 5}, "seeds"),
            ({"methods": "ours"}, "methods"),
            ({"fixed": 5}, "fixed"),
            ({"train": [1]}, "train"),
            ({"search": 5}, "search"),
        ],
    )
    def test_malformed_config_is_domain_error(self, tmp_path, capsys, config, field):
        path = tmp_path / "exp.json"
        if isinstance(config, dict):
            config = {"methods": ["ours"], "seeds": [0], **config}
        path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    def test_string_methods_not_read_letter_by_letter(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"methods": "ours", "seeds": [0]}))
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: methods: 'ours' must be a list\n"

    @pytest.mark.parametrize(
        "search",
        [{"seed": 999}, {"fix_smoothing_to_zero": True}, {"train": {"learning_rate": 5.0, "max_epochs": 1}}],
    )
    def test_search_keys_set_by_the_harness_rejected(self, tmp_path, capsys, search):
        # run_method sets these per (method, seed), so a config value would be ignored
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"methods": ["ours"], "seeds": [0], "search": search}))
        assert main(["compare", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: search.{next(iter(search))}: ")
        assert 'top-level "train"' in err and "Traceback" not in err
