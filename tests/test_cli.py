import json
import random

import numpy as np
import pytest

from softaug.cli import main
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

    def test_non_numeric_policy_field_is_domain_error(self, dataset, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(dict(POLICY.to_dict(), p_aug="x")))
        code = main([
            "augment", "--input", str(dataset), "--policy", str(policy),
            "--seed", "0", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2
        assert "p_aug: 'x' is not a number" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["augment", "--seed", "1"]) == 1
        assert main(["frobnicate"]) == 1


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

    def test_eval_malformed_checkpoint_is_data_error(self, dataset, tmp_path, capsys):
        model = tmp_path / "model.npz"
        np.savez_compressed(
            model, version=np.int64(1), n_class=np.int64(2),
            weights=np.zeros((2, 10)), bias=np.zeros(2),
        )
        assert main(["eval", "--model", str(model), "--input", str(dataset)]) == 2
        assert "do not fit" in capsys.readouterr().err

    def test_malformed_label_sidecar_is_data_error(self, dataset, policy_file, tmp_path):
        (tmp_path / "data.jsonl.labels.json").write_text("[0, 1")
        code = main([
            "augment", "--input", str(dataset), "--policy", str(policy_file),
            "--seed", "0", "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2

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

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"space": {"p_aug": ["x", 1]}}, "p_aug"),
            ({"space": {"p_aug": [1]}}, "p_aug"),
            ({"space": {"n_aug_choices": ["a"]}}, "n_aug_choices"),
            ({"n_train": "x"}, "n_train"),
            ({"space": {"eps_aug": [0.8, 0.95]}}, "eps_aug"),
            ({"space": {"n_aug_choices": [0]}}, "n_aug_choices"),
        ],
    )
    def test_malformed_config_is_domain_error(self, tmp_path, capsys, config, field):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"methods": ["ours"], "seeds": [0], **config}))
        assert main(["compare", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err
