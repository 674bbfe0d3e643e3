"""Permutohedron and cyclopermutohedron: exact volumes and lattice counts.

The cyclopermutohedron is a virtual zonotope: the formal difference of a
Minkowski sum of edge segments q_ij = [0, e_j - e_i] and radial segments
r_i = [0, e - n e_i], translated by e = (1,...,1).  Its volume and its
lattice-point count are alternating sums over generator selections; both
sums collapse to closed forms through decorated forests.  The brute routes
evaluate the sums as defined, with equal terms grouped: a selection's
semiopen brick (Stanley's half-open parallelepiped) has the gcd of its
maximal minors as its points, so the pass keeps a signed weight per span,
not per selection.  A forest's span is its partition of [n] into trees,
so one program over set partitions counts the forests, and wedges with
r_1, r_2, ... in turn add the radials.  One pass per n gives both answers,
stored finished in _brute_sums: the volume is n times its top level, since
det[C | 1] = n * det(C on the first n - 1 rows), and the lattice count adds
the lower levels.

A volume in R^n along the hyperplane sum(x) = const is c / sqrt(n); the
exact rational c and the radicand n travel together in NormalizedVolume.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .forests import (
    DecoratedForest,
    NormalizedVolume,
    PartialDecoratedForest,
    _abel,
    forest_count,
    forest_gcd_sum,
)


def edge_vector(n: int, i: int, j: int) -> tuple[int, ...]:
    """e_j - e_i."""
    v = [0] * n
    v[i - 1] = -1
    v[j - 1] = 1
    return tuple(v)


def radial_vector(n: int, i: int) -> tuple[int, ...]:
    """e - n e_i: every coordinate 1 except 1 - n in slot i."""
    v = [1] * n
    v[i - 1] = 1 - n
    return tuple(v)


def ones_vector(n: int) -> tuple[int, ...]:
    return (1,) * n


# --- generator columns ---


def _columns(n: int, edges, marks) -> list[tuple[int, ...]]:
    """Generator columns of a selection: one edge vector per edge, then one
    radial vector per mark, in the given orders."""
    return [edge_vector(n, i, j) for i, j in edges] + [radial_vector(n, k) for k in marks]


def forest_columns(forest: PartialDecoratedForest | DecoratedForest) -> list[tuple[int, ...]]:
    """Generator columns selected by a (partial) decorated forest: one edge
    vector per edge (lexicographic) and one radial vector per mark
    (ascending)."""
    n = forest.forest.vertex_count
    return _columns(n, forest.forest.edges, sorted(forest.marked))


def sharp_of_partial_forest(forest: PartialDecoratedForest) -> int:
    """Lattice points in the semiopen brick of a partial decorated forest:
    n^(|marks| - 1) * gcd(free component sizes), with value 1 when there are
    no marks."""
    m = forest.mark_count
    if m == 0:
        return 1
    n = forest.forest.vertex_count
    return n ** (m - 1) * math.gcd(*(len(c) for c in forest.free_components()))


# --- the span dynamic program over generator selections ---


# Largest n that the brute routes accept: `cyclo points --n 8 --method
# brute` took 0.23 s and 24 MB peak RSS as a command on a 2-vCPU machine.
BRUTE_MAX = 8

# The sign of a radial in the defining sums; +1 gives those of sum(q_ij) + sum(r_i).
_RADIAL_SIGN = -1


def _wedge_terms(n: int, c) -> list[list[tuple[int, int]]]:
    """e_S ^ c for each row set S of the first n - 1 rows: the terms
    (S + r, +-c_r), one per row r outside S, signed by the rows of S above r."""
    return [
        [(S | 1 << r, -c[r] if (S >> r).bit_count() % 2 else c[r]) for r in range(n - 1) if c[r] and not S >> r & 1]
        for S in range(1 << n - 1)
    ]


def _wedge(span: tuple, terms: list) -> tuple[tuple, int] | None:
    """The key of span ^ c and the gcd q of its minors, from c's
    _wedge_terms; None when c lies in the span."""
    minors: dict[int, int] = {}
    pairs = iter(span)
    for S, x in zip(pairs, pairs):
        for T, v in terms[S]:
            minors[T] = minors.get(T, 0) + v * x
    coords = sorted((T, x) for T, x in minors.items() if x)
    if not coords:
        return None
    q = math.gcd(*(x for _, x in coords))
    d = q if coords[0][1] > 0 else -q
    return tuple(y for T, x in coords for y in (T, x // d)), q


def _edge_forests(n: int) -> tuple[list[dict[bytes, int]], dict[bytes, tuple]]:
    """levels[j][partition] counts the forests of j edges on [n] by their
    partition into trees, bytes of each vertex's block label (the block's
    least vertex, 0-based); the edges come in lexicographic order, and one
    inside a block would close a cycle.  Every forest has minor gcd 1 (the
    incidence matrix is totally unimodular); each partition's key is wedged once."""
    start = bytes(range(n))
    keys = {start: (0, 1)}
    levels = [{start: 1}] + [{} for _ in range(n - 1)]
    for i, j in combinations(range(n), 2):
        terms = _wedge_terms(n, edge_vector(n, i + 1, j + 1))
        for k in reversed(range(n - 1)):
            target = levels[k + 1]
            for p, w in levels[k].items():
                if p[i] != p[j]:
                    merged = p.replace(max(p[i:i + 1], p[j:j + 1]), min(p[i:i + 1], p[j:j + 1]))
                    if merged not in keys:
                        keys[merged] = _wedge(keys[p], terms)[0]
                    target[merged] = target.get(merged, 0) + w
    return levels, keys


def _span_levels(n: int) -> list[list[dict]]:
    """programs[m][j][span] sums _RADIAL_SIGN^m * gcd(minors) over the
    independent selections of r_1..r_m and j edges.  Every generator lies
    in sum(x) = 0, whose lattice maps one to one onto Z^(n-1) by dropping
    the last coordinate, so a span's key is its primitive Pluecker vector
    on the first n - 1 rows: (row bitmask, minor, ...) over the nonzero
    minors over their gcd, first one positive.  Step m wedges with r_m."""
    forests, keys = _edge_forests(n)
    programs = [[{keys[p]: w for p, w in level.items()} for level in forests]]
    for m in range(1, n):
        terms = _wedge_terms(n, radial_vector(n, m))
        levels = [{} for _ in range(n - m)]
        for source, target in zip(programs[-1], levels):
            for span, w in source.items():
                if wedged := _wedge(span, terms):
                    key, q = wedged
                    target[key] = target.get(key, 0) + _RADIAL_SIGN * q * w
        programs.append(levels)
    return programs


def _brute_buckets(n: int) -> list[list[int]]:
    """c[m][k]: the defining sum over the selections of m radials and k
    generators.  A permutation of [n] permutes the generators up to sign,
    so every marks set of size m sums as {1..m}: step m counts C(n, m) times."""
    programs = _span_levels(n)
    return [[0] * m + [math.comb(n, m) * sum(level.values()) for level in levels] for m, levels in enumerate(programs)]


def _brute_pass(n: int) -> tuple[int, int]:
    """(lower, top): the selections of at most n - 2 generators, and of n - 1."""
    buckets = _brute_buckets(n)
    return sum(sum(row[:-1]) for row in buckets), sum(row[-1] for row in buckets)


# n -> (volume, lattice count) by the defining sums, kept for the life of the
# process like _FOREST_VOLUMES: one pass per n, stored finished, so a repeat
# of either brute route is one read.
_BRUTE_SUMS: dict[int, tuple[NormalizedVolume, int]] = {}


def _brute_sums(n: int, jobs: int) -> tuple[NormalizedVolume, int]:
    """(n * top / sqrt(n), lower + top) of _brute_pass(n), once per process;
    jobs is validated on every call but not used."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    sums = _BRUTE_SUMS.get(n)
    if sums is None:
        lower, top = _brute_pass(n)
        sums = _BRUTE_SUMS[n] = NormalizedVolume(n * top, n), lower + top
    return sums


# --- volumes ---


def volume_bruteforce(n: int, *, jobs: int = 1) -> NormalizedVolume:
    """Volume of the cyclopermutohedron by the defining alternating sum over
    all (n-1)-subsets of generators, each contributing |det| (with the
    all-ones column) with sign (-1)^(#radials): the stored volume of
    _brute_sums.  Cost grows with the spans, not the subsets: about 0.03 s
    at n = 7 and 0.2 s at n = 8 on a cold pass; refuse past BRUTE_MAX."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    if n > BRUTE_MAX:
        raise ValueError(f"n={n} exceeds bound={BRUTE_MAX}; use volume_by_forests or volume_closed_form")
    return _brute_sums(n, jobs)[0]


# n -> volume_by_forests(n), kept for the life of the process like
# forests._GCD_SUMS: each entry is computed once and stored finished.
_FOREST_VOLUMES: dict[int, NormalizedVolume] = {}


def volume_by_forests(n: int) -> NormalizedVolume:
    """Volume of the cyclopermutohedron as the decorated-forest sum
    sum_F (-n)^(#marks) * N(F), evaluated grouped: a free tree on N chosen
    vertices and a rooted forest with k trees on the rest contribute
    C(n,N) N^(N-2) * N * (-n)^k * t_{n-N,k}, and the sum over k of
    t_{n-N,k} x^k is the Abel polynomial x (x + n - N)^(n-N-1) at x = -n.
    Every term is an integer, so the sum runs in plain ints."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    volume = _FOREST_VOLUMES.get(n)
    if volume is None:
        total = sum(math.comb(n, N) * N ** (N - 1) * _abel(n - N, -1, -n) for N in range(1, n + 1))
        volume = _FOREST_VOLUMES[n] = NormalizedVolume(total, n)
    return volume


def volume_closed_form(n: int) -> NormalizedVolume:
    """Closed form for the cyclopermutohedron volume: 0 for n >= 3; the
    single exception is n = 2, where the signed sum gives -2/sqrt(2)."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    return NormalizedVolume(Fraction(-2 if n == 2 else 0), n)


def permutohedron_volume(n: int) -> NormalizedVolume:
    """Volume of the permutohedron Pi_n (convex hull of all permutations of
    (1,...,n)): n^(n-1) / sqrt(n), one factor n per spanning tree of K_n."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    return NormalizedVolume(Fraction(n ** (n - 1)), n)


# --- lattice point counts ---


def lattice_count_bruteforce(n: int, *, jobs: int = 1) -> int:
    """Lattice points of the cyclopermutohedron by the defining alternating
    sum over all generator subsets with |edges| + |marks| <= n - 1, counting
    each semiopen brick as the gcd of its maximal minors: the stored count
    of _brute_sums.  Refuse past BRUTE_MAX; use lattice_count_closed_form."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    if n > BRUTE_MAX:
        raise ValueError(f"n={n} exceeds bound={BRUTE_MAX}; use lattice_count_closed_form")
    return _brute_sums(n, jobs)[1]


# n -> Lambda(n), kept for the life of the process like forests._GCD_SUMS.
_LATTICE_COUNTS: dict[int, int] = {}


def lattice_count_closed_form(n: int) -> int:
    """Lattice points of the cyclopermutohedron:
    phi(n) - sum_{v=1}^{n-1} C(n,v) (-v)^(n-v-1) Phi(v),
    with phi the forest count and Phi the forest gcd sum."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    total = _LATTICE_COUNTS.get(n)
    if total is None:
        total = _LATTICE_COUNTS[n] = forest_count(n) - sum(
            math.comb(n, v) * (-v) ** (n - v - 1) * forest_gcd_sum(v) for v in range(1, n)
        )
    return total


def permutohedron_lattice_count(n: int) -> int:
    """Lattice points of the permutohedron Pi_n: the forest count phi(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return forest_count(n)
