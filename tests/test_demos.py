"""Every demo script runs to completion against the package in src/ with
warnings as errors and nothing on stderr, and prints what it printed when
its output was last checked by hand."""
import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_GOLDEN = {
    "01_augmentation_basics.py": "95c62f254e82b27c1b5b7e72d342ac6fba43249da96945610162dbf390bec06f",
    "02_soft_labels_and_policies.py": "a6304d64f205e5026888571cae00b59e675044cea4ef4ed83b6da9c6bbd1aaee",
    "03_train_and_evaluate.py": "4e1517b3fc79d7289d04d448238d02c0931b2ff8e6d115a63e0d4760758ead92",
    "04_policy_search.py": "5e1cf08c3f94b0b47d1e2b011bdc6fc6c31e52af9a7b7bd88a6719257191099a",
}


@lru_cache(maxsize=None)
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_golden(demo):
    result = run_demo(demo)
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_GOLDEN[demo.name]
