"""Every name that a module under src/softaug/ imports is used in that module.

No linter runs offline, so this walks each module's syntax tree instead:
an imported name counts as used when some Name node in the module reads
it. __init__.py is left out, since it imports names to re-export them.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "softaug"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"classifier", "cli", "datasets", "harness", "textops"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported_names(tree) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"
