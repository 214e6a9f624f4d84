"""The benchmark's traced run reads these package names: a change that
removes or renames one fails here, not in the per-layer benchmark run."""
import importlib
import inspect
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from layers import TRACED  # noqa: E402
from softaug import classifier, labels, policy  # noqa: E402
from workloads import Score  # noqa: E402


@pytest.mark.parametrize("span, module, attribute", [t[:3] for t in TRACED], ids=[t[0] for t in TRACED])
def test_traced_function_exists(span, module, attribute):
    assert callable(getattr(importlib.import_module(f"softaug.{module}"), attribute))


@pytest.mark.parametrize(
    "module, attribute, position, name",
    [
        # the positions and names the notes pass to layers._arg
        ("classifier", "train", 0, "train_examples"),
        ("classifier", "evaluate", 1, "data"),
        ("classifier", "featurize", 0, "text"),
        ("harness", "run_method", 0, "method"),
    ],
)
def test_noted_parameter_names(module, attribute, position, name):
    function = getattr(importlib.import_module(f"softaug.{module}"), attribute)
    assert list(inspect.signature(function).parameters)[position] == name


def test_score_model_contract():
    """What the score workload's set-up reads of a trained model."""
    cfg = classifier.TrainConfig(**Score.train_config)
    pairs = [("good fun", 1), ("bad dull", 0), ("good plot", 1), ("dull plot", 0)]
    examples = [
        policy.AugmentedExample(text, labels.smooth_label(y, 2, 0.0), "original", k)
        for k, (text, y) in enumerate(pairs)
    ]
    model, history = classifier.train(examples, pairs, 2, cfg, random.Random(0))
    # the workload's fixed epoch count: every epoch runs
    assert [h.epoch for h in history] == list(range(1, cfg.max_epochs + 1))
    assert model.n_class == 2 and model.weights.shape[0] == 2 and model.bias.shape == (2,)


def test_score_round_trip_check_passes(tmp_path):
    # the set-up's exact save/load check, then one checked operation
    score = Score(1, tmp_path)
    score.setup()
    assert score.round_trip is True
    score.prepare(0)
    score.op(0)
    assert score.check(0)
