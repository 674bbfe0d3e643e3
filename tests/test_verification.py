from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from cycloperm.verification import _integer_partitions as integer_partitions


def test_integer_partitions():
    assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(integer_partitions(0)) == [()]
    # partition numbers p(1..8)
    assert [len(list(integer_partitions(v))) for v in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


_PATCHED_VERIFY = """
import json
from cycloperm import forests, verification
forests.forest_count = lambda n: 12345
print(json.dumps([r.name for r in verification.run_all(2) if not r.passed]))
"""


def test_checks_hold_under_optimize():
    # python -O strips assert statements; the checks must fail all the same
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PATCHED_VERIFY],
        capture_output=True, text=True, check=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(proc.stdout) == ["forest-counts"]
