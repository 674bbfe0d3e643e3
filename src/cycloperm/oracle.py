"""Independent brute-force checks for the closed-form results.

Everything here counts or measures directly from definitions (point scans,
exact linear solves, coordinate geometry) and shares no code path with the
formula implementations it validates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations, product
from operator import mul
from typing import Sequence

from .forests import NormalizedVolume

# Largest n that permutohedron_lattice_points_direct scans (n^n points).
PERMUTOHEDRON_DIRECT_MAX = 5
# Largest bounding box, in candidate points, that semiopen_count_direct scans.
SEMIOPEN_DIRECT_MAX = 2_000_000


def permutohedron_lattice_points_direct(n: int) -> int:
    """Count integer points of the permutohedron Pi_n from its facet
    description: coordinates in 1..n summing to n(n+1)/2 with every
    nonempty proper subset S satisfying sum_S x >= |S|(|S|+1)/2.  Refuse
    past PERMUTOHEDRON_DIRECT_MAX."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > PERMUTOHEDRON_DIRECT_MAX:
        raise ValueError(f"n={n} exceeds oracle bound={PERMUTOHEDRON_DIRECT_MAX}")
    total_needed = n * (n + 1) // 2
    subsets = []
    for r in range(1, n):
        floor = r * (r + 1) // 2
        subsets.extend((s, floor) for s in combinations(range(n), r))
    count = 0
    for point in product(range(1, n + 1), repeat=n):
        if sum(point) != total_needed:
            continue
        if all(sum(point[i] for i in s) >= floor for s, floor in subsets):
            count += 1
    return count


def _invert(rows: list[tuple[int, ...]]) -> list[list[Fraction]] | None:
    """Inverse of a square integer matrix by Gauss-Jordan elimination over
    the rationals; None when the matrix is singular."""
    k = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(k)] for i, r in enumerate(rows)]
    for c in range(k):
        p = next((i for i in range(c, k) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for i in range(k):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [r[k:] for r in aug]


def semiopen_count_direct(columns: Sequence[Sequence[int]]) -> int:
    """Count lattice points x = sum_i t_i c_i with 0 <= t_i < 1 by scanning
    the integer bounding box of the brick on k linearly independent rows:
    the first k-subset of rows, in combinations order, whose block A is
    invertible (the greedy basis of the row matroid).  The projection onto
    those rows is injective on the span, so each candidate y there gives
    one t = A^-1 y.  With den the lcm of the denominators of A^-1 and the
    integer matrix adj = den A^-1, u = adj y = den t; y counts when every
    entry of u lies in [0, den) (0 <= t < 1) and every other row's dot
    product with u is divisible by den (the lifted point is integral).

    Dependent columns give 0 (the brick is degenerate).  Raises when the
    box would hold more than SEMIOPEN_DIRECT_MAX points."""
    k = len(columns)
    if k == 0:
        return 1
    if any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("ragged columns")
    rows = list(zip(*columns))
    for picked in combinations(range(len(rows)), k):
        inv = _invert([rows[i] for i in picked])
        if inv is not None:
            break
    else:
        return 0
    den = math.lcm(*(x.denominator for row in inv for x in row))
    adj = [[int(x * den) for x in row] for row in inv]
    ranges = []
    size = 1
    for i in picked:
        lo = sum(min(0, x) for x in rows[i])
        hi = sum(max(0, x) for x in rows[i])
        size *= hi - lo + 1
        if size > SEMIOPEN_DIRECT_MAX:
            raise ValueError(f"bounding box exceeds {SEMIOPEN_DIRECT_MAX} candidate points")
        ranges.append(range(lo, hi + 1))
    others = [row for i, row in enumerate(rows) if i not in picked]
    count = 0
    for y in product(*ranges):
        u = [sum(map(mul, row, y)) for row in adj]
        if all(0 <= v < den for v in u) and all(sum(map(mul, row, u)) % den == 0 for row in others):
            count += 1
    return count


def _angle_cmp(p: tuple[int, int], q: tuple[int, int]) -> int:
    def half(v: tuple[int, int]) -> int:
        a, b = v
        return 0 if (b > 0 or (b == 0 and a > 0)) else 1

    hp, hq = half(p), half(q)
    if hp != hq:
        return hp - hq
    cross = p[0] * q[1] - p[1] * q[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def hexagon_area_direct() -> NormalizedVolume:
    """Area of Pi_3 (the hexagon spanned by the permutations of (1,2,3))
    measured inside the plane x+y+z = 6: project isometrically onto the
    orthonormal pair (1,-1,0)/sqrt(2), (1,1,-2)/sqrt(6) and take the exact
    shoelace sum."""
    points = []
    for p in set(permutations((1, 2, 3))):
        a = p[0] - p[1]  # sqrt(2) * x
        b = p[0] + p[1] - 2 * p[2]  # sqrt(6) * y
        points.append((a, b))
    points.sort(key=cmp_to_key(_angle_cmp))
    s = 0
    for i, (a1, b1) in enumerate(points):
        a2, b2 = points[(i + 1) % len(points)]
        s += a1 * b2 - a2 * b1
    # area = |s| / 2 * (1/sqrt(2)) * (1/sqrt(6)) = (|s|/4) / sqrt(3)
    return NormalizedVolume(Fraction(abs(s), 4), 3)
