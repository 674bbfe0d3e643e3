"""Exact integer linear algebra: determinants and semiopen brick counts.

A matrix is a plain sequence of integer rows or columns.  Determinants use
Bareiss fraction-free elimination, so every intermediate value is an
integer and every division is exact.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence


def det_rows(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix given as row lists (Bareiss).
    The determinant is transpose-invariant, so column lists work too."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def semiopen_lattice_count(columns: Sequence[Sequence[int]]) -> int:
    """Number of lattice points in the semiopen brick spanned by the columns:
    sum_i t_i c_i with 0 <= t_i < 1.

    Equals the gcd of all maximal (k x k) minors, where k is the number of
    columns; 0 when the columns are linearly dependent, 1 when k = 0.
    """
    k = len(columns)
    if k == 0:
        return 1
    if any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("ragged columns")
    rows = list(zip(*columns))
    if k > len(rows):
        return 0
    g = 0
    for picked in combinations(rows, k):
        g = math.gcd(g, det_rows(picked))
        if g == 1:
            return 1
    return g
