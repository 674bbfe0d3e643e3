from __future__ import annotations

import pytest

from cycloperm import forests, linkage, zonotope

# The tables each module keeps for the life of the process.
_PROCESS_TABLES = [
    (forests, "_DIVISIBLE_TABLES", dict),
    (forests, "_GCD_SUMS", dict),
    (zonotope, "_LATTICE_COUNTS", dict),
    (zonotope, "_FOREST_VOLUMES", dict),
    (zonotope, "_BRUTE_SUMS", dict),
    (linkage, "_STIRLING", lambda: [[1]]),
]


@pytest.fixture(autouse=True)
def fresh_process_tables(monkeypatch):
    """Each test starts from empty per-process tables, so no answer stored by
    an earlier test can hide a patched route; the old tables come back after."""
    for module, name, empty in _PROCESS_TABLES:
        monkeypatch.setattr(module, name, empty())
