"""Exact combinatorics of permutohedra, cyclopermutohedra, and polygonal
linkage configuration spaces.

All arithmetic is exact (integers and fractions); volumes of the form
c / sqrt(n) are carried as a rational coefficient plus an integer radicand.

`import cycloperm` loads no submodule: each exported name imports its
submodule on first access (PEP 562).
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "forests": (
        "NormalizedVolume",
        "abel_eval",
        "forest_count",
        "forest_gcd_sum",
    ),
    "intlin": ("det_rows",),
    "linkage": (
        "CyclicPartition",
        "LinkageError",
        "LinkageSpec",
        "a_profile",
        "betti_vector",
        "enumerate_cells",
        "equilateral_volume",
        "euler_characteristic",
        "f_vector",
        "is_refinement",
        "is_short",
        "moduli_volume_forests",
        "moduli_volume_theorem",
        "validate",
    ),
    "zonotope": (
        "lattice_count_bruteforce",
        "lattice_count_closed_form",
        "permutohedron_lattice_count",
        "permutohedron_volume",
        "volume_bruteforce",
        "volume_by_forests",
        "volume_closed_form",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
