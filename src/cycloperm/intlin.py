"""Exact integer linear algebra: determinants and semiopen brick counts.

Determinants use Bareiss fraction-free elimination, so every intermediate
value is an integer and every division is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(int(x) for x in entries)
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], dim: int | None = None) -> IntMatrix:
        c = len(columns)
        if c == 0:
            if dim is None:
                raise ValueError("dim required for a matrix with no columns")
            return cls(dim, 0, [])
        r = len(columns[0])
        if any(len(col) != r for col in columns):
            raise ValueError("ragged columns")
        if dim is not None and dim != r:
            raise ValueError("dim does not match column length")
        return cls(r, c, [columns[j][i] for i in range(r) for j in range(c)])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def det_rows(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix given as row lists (Bareiss)."""
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


def determinant(m: IntMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return det_rows(m.row_lists())


def semiopen_lattice_count(columns: IntMatrix) -> int:
    """Number of lattice points in the semiopen brick spanned by the columns:
    sum_i t_i c_i with 0 <= t_i < 1.

    Equals the gcd of all maximal (k x k) minors, where k is the number of
    columns; 0 when the columns are linearly dependent, 1 when k = 0.
    """
    k = columns.cols
    if k == 0:
        return 1
    if k > columns.rows:
        return 0
    g = 0
    for picked in combinations(range(columns.rows), k):
        g = math.gcd(g, det_rows([list(columns.row(i)) for i in picked]))
        if g == 1:
            return 1
    return g
