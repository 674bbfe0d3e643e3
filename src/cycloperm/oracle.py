"""Independent brute-force checks for the closed-form results.

Everything here counts or measures directly from definitions (point scans,
exact linear solves, partition sums, subset and set-partition scans,
generator selections, coordinate geometry) and shares no code path with
the formula implementations it validates.  Its one determinant is
`intlin.det_rows`, which no product route calls.

A generator selection (edges, marks) is the one forest format: edges on
[n] in lexicographic order, marks ascending.  `free_components` holds the
decorated-forest definition (acyclic edges, at most one mark per tree),
`forest_selections` filters the selections by it, and the labeled trees
(`trees_on`, by Pruefer decoding) and the sharp formula of a partial
decorated forest take and give plain edge tuples.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations, product
from operator import mul
from typing import Iterable, Iterator, Sequence

from .forests import NormalizedVolume
from .intlin import det_rows
from .linkage import LinkageSpec, _admissible_partitions, is_short

Edge = tuple[int, int]

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


def semiopen_count_direct(columns: Sequence[Sequence[int]]) -> int:
    """Count lattice points x = sum_i t_i c_i with 0 <= t_i < 1 by scanning
    the integer bounding box of the brick on k linearly independent rows:
    the first k-subset of rows, in combinations order, whose block A has
    det(A) != 0 (the greedy basis of the row matroid).  The projection onto
    those rows is injective on the span, so each candidate y there gives
    one t = A^-1 y.  With den = |det A| and adj = den A^-1, the adjugate
    signed by det A, u = adj y = den t; y counts when every entry of u lies
    in [0, den) (0 <= t < 1) and every other row's dot product with u is
    divisible by den (the lifted point is integral).

    Dependent columns give 0 (the brick is degenerate).  Raises when the
    box would hold more than SEMIOPEN_DIRECT_MAX points."""
    k = len(columns)
    if k == 0:
        return 1
    if any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("ragged columns")
    rows = list(zip(*columns))
    for picked in combinations(range(len(rows)), k):
        block = [rows[i] for i in picked]
        if det := det_rows(block):
            break
    else:
        return 0
    den, sign = abs(det), (1 if det > 0 else -1)
    # adj[i][j]: sign (-1)^(i+j) times the minor of A without row j and column i
    adj = [[sign * (-1) ** (i + j) * det_rows([r[:i] + r[i + 1:] for r in block[:j] + block[j + 1:]])
            for j in range(k)] for i in range(k)]
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


def generator_selections(n: int, sizes: Iterable[int]) -> Iterator[tuple[tuple, tuple]]:
    """Every cyclopermutohedron generator selection (edges, marks) with
    |edges| + |marks| in `sizes`: edges in lexicographic order, marks
    ascending.  Singular selections are yielded too; nothing is pruned."""
    all_edges = list(combinations(range(1, n + 1), 2))
    for size in sizes:
        for icount in range(size + 1):
            for edges in combinations(all_edges, icount):
                for marks in combinations(range(1, n + 1), size - icount):
                    yield edges, marks


def components_of(vertices: Iterable[int], edges: Iterable[Edge]) -> tuple[frozenset[int], ...]:
    """Connected components of an acyclic graph, sorted by least vertex
    (path-compressed union-find); raises on a cycle."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            raise ValueError(f"edges contain a cycle through ({i},{j})")
        parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, set[int]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return tuple(frozenset(groups[r]) for r in sorted(groups))


def free_components(n: int, edges: Iterable[Edge], marks: Iterable[int]) -> tuple[frozenset[int], ...] | None:
    """The unmarked trees of the selection (edges, marks) on [n] when it is
    a partial decorated forest (the edges are acyclic and no tree carries
    two marks), None otherwise.  With |edges| + |marks| <= n - 1 some tree
    is free; at n - 1 exactly one is, and the selection is a decorated
    forest, the selections of nonzero determinant (the determinant lemma)."""
    try:
        trees = components_of(range(1, n + 1), edges)
    except ValueError:
        return None
    marks = frozenset(marks)
    if any(len(tree & marks) > 1 for tree in trees):
        return None
    return tuple(tree for tree in trees if not tree & marks)


def forest_selections(n: int, sizes: Iterable[int]) -> Iterator[tuple[tuple, tuple]]:
    """The partial decorated forests among generator_selections(n, sizes),
    in its order; at size n - 1, the decorated forests."""
    for edges, marks in generator_selections(n, sizes):
        if free_components(n, edges, marks) is not None:
            yield edges, marks


def sharp_of_partial_forest(n: int, edges: Sequence[Edge], marks: Sequence[int]) -> int:
    """Lattice points in the semiopen brick of the partial decorated forest
    (edges, marks) on [n]: n^(|marks| - 1) * gcd(free tree sizes), with
    value 1 when there are no marks."""
    free = free_components(n, edges, marks)
    if free is None:
        raise ValueError(f"edges {tuple(edges)}, marks {tuple(marks)} are no partial decorated forest on [{n}]")
    if not marks:
        return 1
    return n ** (len(marks) - 1) * math.gcd(*map(len, free))


def prufer_decode(labels: Sequence[int], seq: Sequence[int]) -> tuple[Edge, ...]:
    """Edges of the tree on `labels` encoded by a Pruefer sequence of length
    len(labels) - 2.  Single vertex decodes to the empty edge set."""
    labels = tuple(sorted(labels))
    v = len(labels)
    if v == 1:
        if seq:
            raise ValueError("sequence must be empty for a single vertex")
        return ()
    if len(seq) != v - 2:
        raise ValueError("sequence length must be len(labels) - 2")
    if not set(seq) <= set(labels):
        raise ValueError("sequence entries must be labels")
    degree = {u: 1 for u in labels}
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(u for u in labels if degree[u] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    u, w = sorted(u for u in labels if degree[u] == 1)
    edges.append((u, w))
    return tuple(sorted(edges))


def trees_on(labels: Sequence[int]) -> Iterator[tuple[Edge, ...]]:
    """All spanning trees on an arbitrary label set, as sorted edge tuples,
    in Pruefer-lexicographic order (Cayley: v^(v-2) of them on v labels)."""
    labels = tuple(sorted(labels))
    v = len(labels)
    if v == 0:
        raise ValueError("empty vertex set")
    if v <= 2:
        yield () if v == 1 else ((labels[0], labels[1]),)
        return
    for seq in product(labels, repeat=v - 2):
        yield prufer_decode(labels, seq)


def integer_partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` into weakly decreasing positive parts."""
    if total < 0:
        raise ValueError("total must be non-negative")

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, total)


def _labelings(parts: tuple[int, ...]) -> int:
    """Number of set partitions of [sum(parts)] with the given block sizes."""
    count = math.factorial(sum(parts))
    for p in parts:
        count //= math.factorial(p)
    for m in Counter(parts).values():  # blocks of one size are unordered
        count //= math.factorial(m)
    return count


def forest_sums_by_partitions(n: int) -> tuple[int, int]:
    """(phi(n), Phi(n)) summed over the integer partitions of n: the
    labelings count times a Cayley factor per block, Phi weighting each
    term by the gcd of the parts.  Super-polynomial in n."""
    phi = gcd_sum = 0
    for parts in integer_partitions(n):
        count = _labelings(parts)
        for p in parts:
            count *= p ** max(p - 2, 0)
        phi += count
        gcd_sum += count * math.gcd(*parts)
    return phi, gcd_sum


def hits_wall_by_subsets(lengths) -> bool:
    """Whether some subset of the lengths sums to half their total."""
    total = sum(lengths)
    return any(2 * sum(sub) == total for r in range(1, len(lengths) + 1) for sub in combinations(lengths, r))


def profile_by_subsets(spec: LinkageSpec) -> tuple[int, ...]:
    """a_k by testing every k-subset S of the first n bars for S + {last bar}
    short.  Exponential in n."""
    n = spec.n
    return tuple(
        sum(1 for s in combinations(range(1, n + 1), k) if is_short(spec, set(s) | {n + 1}))
        for k in range(n + 1)
    )


def f_vector_by_partitions(spec: LinkageSpec) -> tuple[int, ...]:
    """f[k] from the enumerated all-short set partitions into n+1-k blocks,
    (n-k)! cyclic arrangements each.  Bell(n+1) partitions."""
    n = spec.n
    counts = [0] * (n + 2)  # counts[m]: partitions into m blocks
    for blocks in _admissible_partitions(spec):
        counts[len(blocks)] += 1
    return tuple(counts[n + 1 - k] * math.factorial(n - k) for k in range(n - 1))


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
