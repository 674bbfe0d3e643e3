from __future__ import annotations

import math
import random
from itertools import combinations, permutations

import pytest

from cycloperm.intlin import det_rows
from cycloperm.oracle import semiopen_count_direct

# sign-free reference: Leibniz expansion, no elimination involved


def _det_leibniz(rows) -> int:
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a, b in combinations(range(n), 2) if perm[a] > perm[b])
        term = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_determinant_examples():
    assert det_rows([[1, 2], [3, 4]]) == -2
    assert det_rows([[5]]) == 5
    assert det_rows([]) == 1
    assert det_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_rows([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        det_rows([[1, 2]])


def test_determinant_matches_leibniz():
    rng = random.Random(2024)
    for n in range(1, 6):
        for _ in range(30):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det_rows(rows) == _det_leibniz(rows)


def test_determinant_properties():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det_rows(rows)
        # transpose invariance
        assert det_rows([list(col) for col in zip(*rows)]) == d
        # swapping two rows flips the sign
        i, j = rng.sample(range(n), 2)
        swapped = [list(r) for r in rows]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_rows(swapped) == -d
        # scaling one row scales the determinant
        scaled = [list(r) for r in rows]
        scaled[i] = [3 * x for x in scaled[i]]
        assert det_rows(scaled) == 3 * d
        # duplicate rows vanish
        dup = [list(r) for r in rows]
        dup[i] = list(dup[j])
        assert det_rows(dup) == 0


def minor_gcd(columns) -> int:
    """Lattice points of the semiopen brick spanned by the columns as the
    gcd of their maximal minors: the reference for the point scan, with no
    scan involved (0 for dependent columns, 1 for no columns)."""
    rows = list(zip(*columns))
    return math.gcd(*(det_rows(picked) for picked in combinations(rows, len(columns))))


def _columns_of(rows):
    return [tuple(col) for col in zip(*rows)]


# the paper's worked matrices, written row by row, held as column lists
WORKED_MATRICES = [
    (
        _columns_of(
            [
                [1, 0, 0, -1],
                [-1, 1, 0, -1],
                [0, -1, 0, -1],
                [0, 0, 1, -1],
                [0, 0, -1, -1],
                [0, 0, 0, 5],
            ]
        ),
        1,
    ),
    (
        _columns_of(
            [
                [1, 0, 0, 0, -1],
                [-1, 0, 0, 0, 5],
                [0, -1, 0, 0, -1],
                [0, 1, -1, 0, -1],
                [0, 0, 1, 1, -1],
                [0, 0, 0, -1, -1],
            ]
        ),
        4,
    ),
    (
        _columns_of(
            [
                [1, 0, 0, 0, -1],
                [-1, 0, 0, 0, -1],
                [0, -1, 0, 0, -1],
                [0, 1, -1, 0, 5],
                [0, 0, 1, 1, -1],
                [0, 0, 0, -1, -1],
            ]
        ),
        2,
    ),
]


def test_semiopen_lattice_count_column_sign_invariance():
    rng = random.Random(31)
    for columns, expected in WORKED_MATRICES:
        flipped = [[-x for x in col] if rng.random() < 0.5 else col for col in columns]
        assert semiopen_count_direct(flipped) == expected
