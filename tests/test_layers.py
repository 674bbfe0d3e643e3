"""The boundary between the product routes and the check code.

`intlin` and `oracle` hold the independent check routes and `verification`
pairs them with the product routes; no product route may reach them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cycloperm"


def _imported(path: Path) -> set[str]:
    """The cycloperm submodules that one source file imports, by short name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("cycloperm."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and not module or module == "cycloperm":  # from . import x, y
                names.update(a.name for a in node.names)
            elif node.level == 1 or module.startswith("cycloperm."):  # from .x import y
                names.add(module.removeprefix("cycloperm."))
    return names


def _importers(module: str) -> set[str]:
    return {path.stem for path in SRC.glob("*.py") if module in _imported(path)}


@pytest.mark.parametrize(
    "module, importers",
    [("intlin", {"oracle", "verification"}), ("oracle", {"verification"}), ("verification", {"cli"})],
)
def test_only_check_code_reaches_the_check_routes(module, importers):
    assert _importers(module) == importers
