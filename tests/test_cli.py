import argparse
import hashlib
import itertools
import json
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from softaug import cli, harness, search
from softaug.classifier import N_BUCKETS, _atomic_write, load_model, save_model
from softaug.cli import main
from softaug.errors import TrainingError
from softaug.policy import AugmentationPolicy, AugmentedExample, PolicySpace

POLICY = AugmentationPolicy(
    p_aug=1.0, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
    alpha_sr=0.1, alpha_ri=0.1, alpha_rs=0.1, alpha_rd=0.1,
    n_aug=2, eps_ori=0.0, eps_aug=0.1,
)


class OutOfSpace:
    """A binary handle whose disk runs out after the first 5 bytes."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[:5])
        raise OSError(28, "No space left on device")


@contextmanager
def interrupted_write(path):
    # _atomic_write on a disk that runs out after 5 bytes
    with _atomic_write(path) as f:
        yield OutOfSpace(f)


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

    # sha256 of the augment output for seed 3
    OUTPUT_GOLDEN = "4f9feb575b2ed14ac2cb04566dde20f8c3d27205899b2e2c9cd2bdfc5f43b1f2"

    def test_output_golden(self, dataset, policy_file, tmp_path, capsys):
        out = tmp_path / "aug.jsonl"
        argv = ["augment", "--input", str(dataset), "--policy", str(policy_file), "--seed", "3"]
        assert main(argv + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.OUTPUT_GOLDEN

    def test_byte_order_mark_in_policy_file(self, dataset, tmp_path, capsys):
        # a policy file saved with a UTF-8 BOM gives the same output as one without
        policy = tmp_path / "bom_policy.json"
        policy.write_bytes(b"\xef\xbb\xbf" + POLICY.to_json().encode("utf-8"))
        out = tmp_path / "aug.jsonl"
        argv = ["augment", "--input", str(dataset), "--policy", str(policy), "--seed", "3"]
        assert main(argv + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.OUTPUT_GOLDEN

    def test_failed_build_keeps_the_old_output(self, dataset, policy_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "aug.jsonl"
        out.write_text("OLD CONTENT\n")
        calls = itertools.count()
        to_dict = AugmentedExample.to_dict

        def third_call_fails(ex):
            if next(calls) == 2:
                raise OSError(28, "No space left on device")
            return to_dict(ex)

        monkeypatch.setattr(AugmentedExample, "to_dict", third_call_fails)
        argv = ["augment", "--input", str(dataset), "--policy", str(policy_file), "--seed", "3"]
        assert main(argv + ["--output", str(out)]) == 2
        assert "No space left" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aug.jsonl", "data.jsonl", "policy.json"]
        assert out.read_bytes() == b"OLD CONTENT\n"

    def test_interrupted_write_keeps_the_old_output(self, dataset, policy_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "aug.jsonl"
        out.write_text("OLD CONTENT\n")
        monkeypatch.setattr(cli, "_atomic_write", interrupted_write)
        argv = ["augment", "--input", str(dataset), "--policy", str(policy_file), "--seed", "3"]
        assert main(argv + ["--output", str(out)]) == 2
        assert "No space left" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aug.jsonl", "data.jsonl", "policy.json"]
        assert out.read_bytes() == b"OLD CONTENT\n"

    def test_csv_field_over_the_size_limit_is_data_error(self, policy_file, tmp_path, capsys):
        # csv.field_size_limit() defaults to 131,072 characters
        big = tmp_path / "big.csv"
        big.write_text("text,label\nfine movie,pos\n" + "x" * 200_000 + ",neg\n")
        argv = ["augment", "--input", str(big), "--policy", str(policy_file), "--seed", "0"]
        assert main(argv + ["--output", str(tmp_path / "o.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: big.csv line 3: field larger than field limit") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "policy.json"]

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            (dict(POLICY.to_dict(), p_aug2=0.5), "policy.p_aug2: unknown key, expected one of p_aug, "),
            ({k: v for k, v in POLICY.to_dict().items() if k != "eps_aug"}, "policy.eps_aug: missing"),
            ([POLICY.to_dict()], "policy: [{"),
        ],
        ids=["extra", "missing", "list"],
    )
    def test_policy_file_keys(self, dataset, tmp_path, capsys, doc, message):
        # an extra key was ignored before, so a misspelt field went unnoticed
        (tmp_path / "p.json").write_text(json.dumps(doc))
        argv = ["augment", "--input", str(dataset), "--policy", str(tmp_path / "p.json"),
                "--seed", "0", "--output", str(tmp_path / "o.jsonl")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
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

    @pytest.mark.parametrize("command, name", [("augment", "x.jsonl"), ("train", "m.npz")])
    @pytest.mark.parametrize("in_the_way", [False, True], ids=["missing-directory", "directory-in-the-way"])
    def test_unwritable_output_is_named(self, dataset, policy_file, tmp_path, capsys, command, name, in_the_way):
        # the temp file cannot be opened in a missing directory, nor renamed
        # over a directory: either error names the output, not its temp file
        out = tmp_path / name if in_the_way else tmp_path / "missing" / name
        if in_the_way:
            out.mkdir()
        argv = [command, "--input", str(dataset), "--policy", str(policy_file), "--seed", "0"]
        assert main(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f": '{out}'\n") and ".tmp" not in err
        assert not list(tmp_path.rglob("*.tmp"))


def _choices(*names):
    # older CPython releases list an invalid choice's options with repr(),
    # newer ones with str(): ask the running argparse which
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("--x", choices=names)
    with pytest.raises(argparse.ArgumentError) as e:
        probe.parse_args(["--x", "?"])
    return str(e.value).split("(choose from ")[1][:-1]


_SEARCH_USAGE = (
    "usage: softaug search [-h] --input INPUT [--format {csv,tsv,jsonl}] [--lexicon LEXICON] --n-train N_TRAIN "
    "--trials TRIALS --seed SEED [--no-label-smoothing] --output OUTPUT\n"
)
_HELP = """\
usage: softaug [-h] {augment,search,train,eval,compare} ...

Command-line entry points. Exit codes: 0 success, 1 usage error, 2 data/ingestion error, 3 training error.

positional arguments:
  {augment,search,train,eval,compare}
    augment             apply a policy file, write augmented JSONL
    search              optimize the augmentation policy
    train               one training run with a policy
    eval                print test accuracy of a checkpoint
    compare             full multi-seed experiment from a config

options:
  -h, --help            show this help message and exit
"""
_TRAIN_HELP = """\
usage: softaug train [-h] --input INPUT [--format {csv,tsv,jsonl}] [--lexicon LEXICON] --policy POLICY --seed SEED --output OUTPUT

options:
  -h, --help            show this help message and exit
  --input INPUT         dataset file (csv/tsv/jsonl)
  --format {csv,tsv,jsonl}
  --lexicon LEXICON
  --policy POLICY
  --seed SEED
  --output OUTPUT       model checkpoint path
"""
_SEARCH_ARGV = ["search", "--input", "d.jsonl", "--n-train", "40", "--trials", "3", "--output", "o"]


class TestUsage:
    # the exact exit code, stdout and stderr of each usage error and help page
    @pytest.mark.parametrize("argv, code, stdout, stderr", [
        ([], 1, "", "usage: softaug [-h] {augment,search,train,eval,compare} ...\n"
         "softaug: error: the following arguments are required: command\n"),
        (["frobnicate"], 1, "", "usage: softaug [-h] {augment,search,train,eval,compare} ...\n"
         "softaug: error: argument command: invalid choice: 'frobnicate' (choose from "
         f"{_choices('augment', 'search', 'train', 'eval', 'compare')})\n"),
        (["search", "--input", "x"], 1, "", _SEARCH_USAGE + "softaug search: error: the following "
         "arguments are required: --n-train, --trials, --seed, --output\n"),
        ([*_SEARCH_ARGV, "--seed", "x"], 1, "", _SEARCH_USAGE
         + "softaug search: error: argument --seed: invalid int value: 'x'\n"),
        ([*_SEARCH_ARGV, "--seed", "0", "--format", "xml"], 1, "", _SEARCH_USAGE
         + "softaug search: error: argument --format: invalid choice: 'xml' "
         f"(choose from {_choices('csv', 'tsv', 'jsonl')})\n"),
        (["--help"], 0, _HELP, ""),
        (["train", "--help"], 0, _TRAIN_HELP, ""),
    ], ids=["no-command", "unknown-command", "missing-options", "seed-not-int", "format-xml", "help", "train-help"])
    def test_output(self, argv, code, stdout, stderr, monkeypatch, capsys):
        # wide enough that no line wraps: CPython 3.13 wraps usage lines
        # differently from 3.11 and 3.12
        monkeypatch.setenv("COLUMNS", "200")
        assert main(argv) == code
        assert capsys.readouterr() == (stdout, stderr)


class TestSearchCommand:
    def test_writes_best_policy_and_trials(self, dataset, tmp_path):
        out = tmp_path / "searchout"
        code = main([
            "search", "--input", str(dataset), "--n-train", "40", "--trials", "3",
            "--seed", "0", "--output", str(out),
        ])
        assert code == 0
        best = json.loads((out / "best_policy.json").read_text())
        AugmentationPolicy(**best)  # parses as a full policy
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

    def test_interrupted_write_leaves_the_log_and_no_policy(self, dataset, tmp_path, monkeypatch, capsys):
        # the earlier best_policy.json goes before the search starts, so a
        # failed final write cannot leave it beside the new log
        out = tmp_path / "searchout"
        out.mkdir()
        (out / "best_policy.json").write_text("OLD CONTENT\n")
        monkeypatch.setattr(harness, "_atomic_write", interrupted_write)
        code = main([
            "search", "--input", str(dataset), "--n-train", "40", "--trials", "2",
            "--seed", "0", "--output", str(out),
        ])
        assert code == 2
        assert "No space left" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["trials.jsonl"]  # no best_policy.json, no .tmp
        assert len((out / "trials.jsonl").read_text().splitlines()) == 2  # the streamed log is whole

    def test_stopped_search_leaves_its_log_and_no_earlier_policy(self, dataset, tmp_path, monkeypatch, capsys):
        def objective_failing_trial_2(*args):
            if next(calls) == 1:
                raise TrainingError("non-finite training loss at epoch 1")
            return real_objective(*args)

        calls, real_objective = itertools.count(), search.objective
        monkeypatch.setattr(search, "objective", objective_failing_trial_2)
        out = tmp_path / "searchout"
        out.mkdir()
        (out / "best_policy.json").write_text("OLD CONTENT\n")
        (out / "best_policy_ours_seed9.json").write_text("NOT THIS RUN'S\n")
        code = main([
            "search", "--input", str(dataset), "--n-train", "40", "--trials", "3",
            "--seed", "0", "--output", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == "error: non-finite training loss at epoch 1\n"
        assert sorted(p.name for p in out.iterdir()) == ["best_policy_ours_seed9.json", "trials.jsonl"]
        assert len((out / "trials.jsonl").read_text().splitlines()) == 1
        assert (out / "best_policy_ours_seed9.json").read_text() == "NOT THIS RUN'S\n"

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

    def test_lone_surrogate_text_is_data_error(self, dataset, policy_file, tmp_path, capsys):
        # a JSON "\ud800" escape loads as a lone surrogate, which the indexer cannot encode to UTF-8
        lines = dataset.read_text().splitlines(keepends=True)
        lines[3] = json.dumps({"text": "bad \ud800 film", "label": json.loads(lines[3])["label"]}) + "\n"
        dataset.write_text("".join(lines))
        model = tmp_path / "model.bin"
        assert main([
            "train", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "0", "--output", str(model),
        ]) == 2
        err = capsys.readouterr().err
        assert "data.jsonl line 4: text has a lone surrogate at index 4" in err
        assert "Traceback" not in err and not model.exists()

    # sha256 of the checkpoint's weights, scattered into N_BUCKETS columns,
    # and bias, then the train and eval stdout, for seed 0 on this dataset
    # (the holdout comes from make_val_split)
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
        weights = np.zeros((m.n_class, N_BUCKETS))
        weights[:, m.buckets] = m.weights
        digest = hashlib.sha256(weights.tobytes() + m.bias.tobytes()).hexdigest()
        assert (digest, trained, capsys.readouterr().out) == self.TRAIN_EVAL_GOLDEN

    def test_eval_malformed_checkpoint_is_data_error(self, dataset, tmp_path, capsys):
        model = tmp_path / "model.npz"
        np.savez(
            model, version=np.int64(2), n_class=np.int64(2), buckets=np.array([3, 7, 11]),
            weights=np.zeros((2, 10)), bias=np.zeros(2),
        )
        assert main(["eval", "--model", str(model), "--input", str(dataset)]) == 2
        assert "do not fit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arrays, message",
        [
            # the dense, compressed version-1 layout is not read
            (dict(version=np.int64(1), weights=np.zeros((2, N_BUCKETS))),
             "unsupported checkpoint version 1"),
            # a complex bias once loaded and failed in scoring, exit 1
            (dict(version=np.int64(2), buckets=np.array([3]), weights=np.zeros((2, 1)),
                  bias=np.zeros(2, dtype=np.complex128)), "bias is a complex128"),
        ],
        ids=["version-1", "complex-bias"],
    )
    def test_eval_unreadable_checkpoint_exits_2(self, dataset, tmp_path, capsys, arrays, message):
        model = tmp_path / "model.npz"
        np.savez_compressed(model, **{"n_class": np.int64(2), "bias": np.zeros(2), **arrays})
        assert main(["eval", "--model", str(model), "--input", str(dataset)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

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

    def test_diverging_cells_fail_when_warnings_are_errors(self, dataset, tmp_path, capsys):
        # the suite turns warnings into errors: numpy's overflow warnings on
        # the way to a non-finite loss must not escape the trainer
        config = {
            "dataset_path": str(dataset),
            "methods": ["baseline", "eda"],
            "seeds": [0],
            "n_train": 40,
            "train": {"learning_rate": 1e308, "max_epochs": 2, "patience": 2},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(cfg_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["failed_seeds"] for c in report["cells"]] == [[0], [0]]
        for method in ("baseline", "eda"):
            failure = (tmp_path / "out" / f"failure_{method}_seed0.txt").read_text()
            assert failure.splitlines()[-1].startswith("softaug.errors.TrainingError: non-finite training loss")

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
            # a repeated choice would weigh that value twice in the prior draw
            ({"space": {"n_aug_choices": [4, 4, 8]}}, "n_aug_choices"),
            # a key no config type has, named under its object
            ({"train": {"patiense": 3}}, "train.patiense: unknown key"),
            ({"seed": 3}, "config.seed: unknown key"),
            ({"space": {"n_aug": [1, 2]}}, "space.n_aug: unknown key"),
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


@pytest.mark.parametrize("name", ["deep.jsonl", "data.jsonl.labels.json", "policy.json", "config.json"])
def test_json_nested_too_deep_is_data_error(dataset, policy_file, tmp_path, capsys, name):
    # json raises RecursionError far below this depth
    deep = "[" * 100_000 + "]" * 100_000
    first = '{"text": "fine movie", "label": 0}\n' if name == "deep.jsonl" else ""
    (tmp_path / name).write_text(first + deep + "\n")
    if name == "config.json":
        argv = ["compare", "--config", str(tmp_path / name)]
    else:
        data = tmp_path / name if name == "deep.jsonl" else dataset
        argv = ["augment", "--input", str(data), "--policy", str(policy_file), "--seed", "0",
                "--output", str(tmp_path / "o.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err


_SCALAR_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6),
}
_JSON = st.recursive(
    st.one_of(*_SCALAR_KINDS.values()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# every kind of JSON value, nested ones included
JSON_KINDS = {
    **_SCALAR_KINDS,
    "list": st.lists(_JSON, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _JSON, max_size=3),
}
# (object, key) -> the kinds some valid value of the key has; None is the
# top level of a compare config, "policy" a policy file
JSON_FIELDS = {
    **{(None, key): {"null", "string"} for key in ("dataset_path", "dataset_format", "lexicon_path", "output_dir")},
    (None, "n_train"): {"int"},
    (None, "methods"): {"list"},
    (None, "seeds"): {"list"},
    (None, "val_fraction"): {"float"},
    **{(None, key): {"object"} for key in ("fixed", "search", "space", "train")},
    ("fixed", "alpha"): {"int", "float"},
    ("fixed", "n_aug"): {"int"},
    ("fixed", "eps_aug"): {"int", "float"},
    **{("search", key): {"int"} for key in ("n_trials", "n_startup", "n_candidates", "runs_per_trial")},
    ("search", "gamma"): {"float"},
    **{("space", key): {"list"} for key in PolicySpace.__dataclass_fields__},
    ("train", "learning_rate"): {"int", "float"},
    **{("train", key): {"int"} for key in ("batch_size", "max_epochs", "patience")},
    **{("policy", key): {"int"} if key == "n_aug" else {"int", "float"} for key in POLICY.to_dict()},
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(sorted(JSON_FIELDS, key=str)), data=st.data())
def test_json_value_of_a_wrong_kind_is_named(dataset, tmp_path, capsys, field, data):
    # any JSON value of a kind the field never takes, in a compare config, one
    # of its nested objects or a policy file: exit 2 and one line naming it
    where, key = field
    value = data.draw(st.sampled_from(sorted(JSON_KINDS.keys() - JSON_FIELDS[field])).flatmap(JSON_KINDS.get))
    path = tmp_path / "input.json"
    if where == "policy":
        path.write_text(json.dumps(dict(POLICY.to_dict(), **{key: value})))
        argv = ["augment", "--input", str(dataset), "--policy", str(path), "--seed", "0",
                "--output", str(tmp_path / "o.jsonl")]
    else:
        config = {"methods": ["ours"], "seeds": [0]}
        config.update({key: value} if where is None else {where: {key: value}})
        path.write_text(json.dumps(config))
        argv = ["compare", "--config", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize(
    "patched, argv",
    [
        (search.SearchConfig, ["compare", "--config", "{config}"]),
        (AugmentationPolicy, ["augment", "--input", "{dataset}", "--policy", "{policy}", "--seed", "0",
                              "--output", "{out}"]),
    ],
    ids=["config", "policy"],
)
def test_bug_in_a_constructor_propagates(dataset, policy_file, tmp_path, monkeypatch, capsys, patched, argv):
    # only the reading of the file maps to DataError: a TypeError from
    # building what it holds is a bug, not a malformed file
    def broken(self):
        raise TypeError("forced bug")

    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"search": {"n_trials": 4, "n_startup": 2}}))
    monkeypatch.setattr(patched, "__post_init__", broken)
    paths = {"config": config, "dataset": dataset, "policy": policy_file, "out": tmp_path / "o.jsonl"}
    with pytest.raises(TypeError, match="forced bug"):
        main([arg.format(**paths) for arg in argv])
    assert "cannot read" not in capsys.readouterr().err
