"""Permutohedron and cyclopermutohedron: exact volumes and lattice counts.

The cyclopermutohedron is a virtual zonotope: the formal difference of a
Minkowski sum of edge segments q_ij = [0, e_j - e_i] and radial segments
r_i = [0, e - n e_i], translated by e = (1,...,1).  Its volume and its
lattice-point count are alternating sums over generator selections, all
streamed by _selections and turned into columns by _columns; both sums
collapse to closed forms through decorated forests.

A volume in R^n along the hyperplane sum(x) = const is c / sqrt(n); the
exact rational c and the radicand n travel together in NormalizedVolume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable, Iterator

from .forests import (
    DecoratedForest,
    PartialDecoratedForest,
    abel_eval,
    forest_count,
    forest_gcd_sum,
)
from .intlin import IntMatrix, det_rows, semiopen_lattice_count

@dataclass(frozen=True)
class NormalizedVolume:
    """Exact value coeff / sqrt(radicand)."""

    coeff: Fraction
    radicand: int

    def __post_init__(self):
        if self.radicand < 1:
            raise ValueError("radicand must be a positive integer")
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def approx(self) -> float:
        return float(self.coeff) / math.sqrt(self.radicand)

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        return f"{self.coeff}/sqrt({self.radicand})"


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


# --- generator selections and their columns ---


def _selections(n: int, sizes: Iterable[int]) -> Iterator[tuple[tuple, tuple]]:
    """Every generator selection (edges, marks) with |edges| + |marks| in
    `sizes`: edges in lexicographic order, marks ascending.  Singular
    selections are yielded too; nothing is pruned."""
    all_edges = list(combinations(range(1, n + 1), 2))
    for size in sizes:
        for icount in range(size + 1):
            for edges in combinations(all_edges, icount):
                for marks in combinations(range(1, n + 1), size - icount):
                    yield edges, marks


def _columns(n: int, edges, marks) -> list[tuple[int, ...]]:
    """Generator columns of a selection: one edge vector per edge, then one
    radial vector per mark, in the given orders."""
    return [edge_vector(n, i, j) for i, j in edges] + [radial_vector(n, k) for k in marks]


def forest_columns(forest: PartialDecoratedForest | DecoratedForest) -> IntMatrix:
    """Generator columns selected by a (partial) decorated forest: one edge
    vector per edge (lexicographic) and one radial vector per mark
    (ascending)."""
    n = forest.forest.vertex_count
    return IntMatrix.from_columns(_columns(n, forest.forest.edges, sorted(forest.marked)), dim=n)


def forest_det_matrix(forest: DecoratedForest, marks_as: str = "radial") -> IntMatrix:
    """Square n x n matrix of a decorated forest: edge columns, then one
    column per mark (the radial vector, or the standard unit vector when
    marks_as="unit"), then the all-ones column."""
    n = forest.forest.vertex_count
    marks = sorted(forest.marked)
    if marks_as == "radial":
        cols = _columns(n, forest.forest.edges, marks)
    elif marks_as == "unit":
        cols = _columns(n, forest.forest.edges, ())
        cols += [tuple(int(i == k) for i in range(1, n + 1)) for k in marks]
    else:
        raise ValueError("marks_as must be 'radial' or 'unit'")
    return IntMatrix.from_columns(cols + [ones_vector(n)], dim=n)


def sharp_of_partial_forest(forest: PartialDecoratedForest) -> int:
    """Lattice points in the semiopen brick of a partial decorated forest:
    n^(|marks| - 1) * gcd(free component sizes), with value 1 when there are
    no marks and 0 when no free component remains."""
    free_sizes = [len(c) for c in forest.free_components()]
    if not free_sizes:
        return 0
    m = forest.mark_count
    if m == 0:
        return 1
    n = forest.forest.vertex_count
    return n ** (m - 1) * math.gcd(*free_sizes)


# --- volumes ---


# Largest n that the two brute routes accept.
VOLUME_BRUTE_MAX = 7
LATTICE_BRUTE_MAX = 6


def _strided_sum(args) -> int:
    term, n, sizes, w, workers = args
    return sum(term(n, edges, marks) for edges, marks in islice(_selections(n, sizes), w, None, workers))


def _parallel_sum(term, n: int, sizes: Iterable[int], jobs: int) -> int:
    """Sum of term(n, edges, marks) over _selections(n, sizes).  With
    jobs > 1 and n >= 5, each of min(jobs, cpu_count()) fork-pool workers
    takes every workers-th selection of the stream, starting at its index."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and n >= 5:
        import multiprocessing as mp

        workers = min(jobs, mp.cpu_count())
        with mp.get_context("fork").Pool(workers) as pool:
            return sum(pool.map(_strided_sum, [(term, n, sizes, w, workers) for w in range(workers)]))
    return _strided_sum((term, n, sizes, 0, 1))


def _volume_term(n: int, edges, marks) -> int:
    d = det_rows(list(zip(*_columns(n, edges, marks), ones_vector(n))))
    return (-1) ** len(marks) * abs(d)


def volume_bruteforce(n: int, *, jobs: int = 1) -> NormalizedVolume:
    """Volume of the cyclopermutohedron by the defining alternating sum over
    all (n-1)-subsets of generators, each contributing |det| with sign
    (-1)^(#radials).  Cost grows as C(n(n+1)/2, n-1); refuse past
    VOLUME_BRUTE_MAX."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    if n > VOLUME_BRUTE_MAX:
        raise ValueError(
            f"n={n} exceeds bound={VOLUME_BRUTE_MAX}; use volume_by_forests or volume_closed_form"
        )
    return NormalizedVolume(Fraction(_parallel_sum(_volume_term, n, (n - 1,), jobs)), n)


def volume_by_forests(n: int) -> NormalizedVolume:
    """Volume of the cyclopermutohedron as the decorated-forest sum
    sum_F (-n)^(#marks) * N(F), evaluated grouped: a free tree on N chosen
    vertices and a rooted forest with k trees on the rest contribute
    C(n,N) N^(N-2) * N * (-n)^k * t_{n-N,k}, and the sum over k of
    t_{n-N,k} x^k is the Abel polynomial x (x + n - N)^(n-N-1) at x = -n."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    total = sum(
        math.comb(n, N) * N ** (N - 1) * abel_eval(n - N, -1, -n) for N in range(1, n + 1)
    )
    return NormalizedVolume(Fraction(total), n)


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


def _lattice_term(n: int, edges, marks) -> int:
    count = semiopen_lattice_count(IntMatrix.from_columns(_columns(n, edges, marks), dim=n))
    return (-1) ** len(marks) * count


def lattice_count_bruteforce(n: int, *, jobs: int = 1) -> int:
    """Lattice points of the cyclopermutohedron by the defining alternating
    sum over all generator subsets with |edges| + |marks| <= n - 1, counting
    each semiopen brick via minor gcds.  Refuse past LATTICE_BRUTE_MAX; use
    lattice_count_closed_form for larger n."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    if n > LATTICE_BRUTE_MAX:
        raise ValueError(f"n={n} exceeds bound={LATTICE_BRUTE_MAX}; use lattice_count_closed_form")
    return _parallel_sum(_lattice_term, n, range(n), jobs)


def lattice_count_closed_form(n: int) -> int:
    """Lattice points of the cyclopermutohedron:
    phi(n) - sum_{v=1}^{n-1} C(n,v) (-v)^(n-v-1) Phi(v),
    with phi the forest count and Phi the forest gcd sum."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    total = forest_count(n)
    for v in range(1, n):
        total -= math.comb(n, v) * (-v) ** (n - v - 1) * forest_gcd_sum(v)
    return total


def permutohedron_lattice_count(n: int) -> int:
    """Lattice points of the permutohedron Pi_n: the forest count phi(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return forest_count(n)
