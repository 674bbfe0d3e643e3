"""Exact integer determinants.

A matrix is a plain sequence of integer rows or columns.  Determinants use
Bareiss fraction-free elimination, so every intermediate value is an
integer and every division is exact.
"""

from __future__ import annotations

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

