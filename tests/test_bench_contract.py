"""The benchmark's traced run reads these package names: a change that
removes or renames one fails here, not in the per-layer benchmark run."""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from layers import TRACED  # noqa: E402


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
