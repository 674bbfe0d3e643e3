"""The boundary between the product routes and the check code, and the
package surface.

`intlin` and `oracle` hold the independent check routes and `verification`
pairs them with the product routes; no product route may reach them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import cycloperm

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


def test_package_surface_is_pinned():
    assert set(cycloperm.__all__) == {
        "__version__",
        # forests
        "NormalizedVolume", "abel_eval", "forest_count", "forest_gcd_sum",
        # intlin
        "det_rows",
        # linkage
        "CyclicPartition", "LinkageError", "LinkageSpec", "a_profile", "betti_vector", "enumerate_cells",
        "equilateral_volume", "euler_characteristic", "f_vector", "is_refinement", "is_short",
        "moduli_volume_forests", "moduli_volume_theorem", "validate",
        # zonotope
        "lattice_count_bruteforce", "lattice_count_closed_form", "permutohedron_lattice_count",
        "permutohedron_volume", "volume_bruteforce", "volume_by_forests", "volume_closed_form",
    }


# The forest definition, the trees and the sharp formula are check code.
_ORACLE_ONLY = (
    "components_of", "forest_selections", "free_components", "prufer_decode", "sharp_of_partial_forest", "trees_on",
)


@pytest.mark.parametrize("module", ["forests", "zonotope", "linkage", "cli"])
def test_forest_definition_lives_only_in_oracle(module):
    namespace = vars(importlib.import_module(f"cycloperm.{module}"))
    assert [name for name in _ORACLE_ONLY if name in namespace] == []
