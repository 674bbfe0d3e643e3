"""Permutohedron and cyclopermutohedron: exact volumes and lattice counts.

The cyclopermutohedron is a virtual zonotope: the formal difference of a
Minkowski sum of edge segments q_ij = [0, e_j - e_i] and radial segments
r_i = [0, e - n e_i], translated by e = (1,...,1).  Its volume and its
lattice-point count are alternating sums over generator selections; both
sums collapse to closed forms through decorated forests.  The brute routes
evaluate the sums as defined, by one depth-first walk over the generator
subsets (edges, then radials, indices increasing) that carries the
exterior product of the selected columns as a map from row set to
Pluecker coordinate, i.e. to maximal minor on the first n - 1 rows.
Adding a column costs one expansion along it, so no selection pays for
its own elimination.  Both routes read one pass, _brute_pass: the volume
is n times its top level, since det[C | 1] = n * det(C on the first
n - 1 rows), and the lattice count adds the lower levels.

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


# --- the Pluecker walk over generator subsets ---


# Largest n that the brute routes accept: both run one walk of the same size.
BRUTE_MAX = 7


def _generators(n: int) -> list:
    """The generators in walk order: the edges (i, j) in lexicographic
    order, then the radial marks 1..n."""
    return list(combinations(range(1, n + 1), 2)) + list(range(1, n + 1))


def _wedge_tables(n: int) -> list[list[list[tuple[int, int]]]]:
    """tables[g][S]: the terms of e_S ^ c for the first n - 1 coordinates c
    of generator g's column and a set S of those rows (a bitmask), one
    (S | {r}, sign * c_r) per row r outside S with c_r != 0.  The sign
    (-1)^(rows of S above r) is the Laplace sign of c_r in the new last
    column, so that coordinates are the minors on ascending rows."""
    gens = _generators(n)
    edges = len(gens) - n
    return [
        [
            [(S | 1 << r, -c[r] if (S >> r).bit_count() % 2 else c[r]) for r in range(n - 1) if c[r] and not S >> r & 1]
            for S in range(1 << n - 1)
        ]
        for c in _columns(n, gens[:edges], gens[edges:])
    ]


def _walk(n: int, tables, depth: int, worker: int = 0, workers: int = 1):
    """Depth-first walk over the selections of at most `depth` generators,
    indices increasing.  Yields (selection, state, marks): the generator
    indices, the exterior product of their columns as {row bitmask:
    Pluecker coordinate} without zero coordinates, and the number of
    radials.  A dependent selection has the empty state and is walked like
    any other: nothing is pruned.  Worker w of `workers` takes the
    top-level branches w, w + workers, ...; worker 0 also yields the empty
    selection."""
    first_radial = len(tables) - n
    if worker == 0:
        yield (), {0: 1}, 0
    if depth == 0:
        return
    stack = [((), {0: 1}, 0, g) for g in reversed(range(worker, len(tables), workers))]
    while stack:
        selection, parent, marks, g = stack.pop()
        table = tables[g]
        state: dict[int, int] = {}
        for S, x in parent.items():
            for T, v in table[S]:
                state[T] = state.get(T, 0) + v * x
        state = {T: x for T, x in state.items() if x}
        selection += (g,)
        marks += g >= first_radial
        yield selection, state, marks
        if len(selection) < depth:
            stack.extend((selection, state, marks, h) for h in range(len(tables) - 1, g, -1))


def _brute_pass(n: int, worker: int, workers: int) -> tuple[int, int]:
    """One worker's share (lower, top) of the defining sums.  Every
    generator lies in sum(x) = 0, and dropping the last coordinate maps that
    hyperplane's lattice points one to one onto Z^(n-1), so the walk keeps
    the first n - 1 rows.  lower: each selection of at most n - 2
    generators adds (-1)^(#radials) times its semiopen brick's points, the
    gcd of its maximal minors (0 when dependent, 1 for the empty one).
    top: each node at n - 2 is wedged with every later generator, adding
    (-1)^(#radials) times |its one coordinate|, the minor of n - 1 columns."""
    tables = _wedge_tables(n)
    signs = [1] * (len(tables) - n) + [-1] * n
    lower = top = 0
    for selection, state, marks in _walk(n, tables, n - 2, worker, workers):
        g = math.gcd(*state.values())
        lower += -g if marks % 2 else g
        if len(selection) == n - 2:
            terms = 0
            for h in range(selection[-1] + 1 if selection else 0, len(tables)):
                terms += signs[h] * abs(sum(v * x for S, x in state.items() for _, v in tables[h][S]))
            top += -terms if marks % 2 else terms
    return lower, top


def _parallel_sum(n: int, jobs: int) -> tuple[int, int]:
    """_brute_pass(n, worker, workers) summed over the workers.  With
    jobs > 1 and n >= 7 (at n = 6 the serial walk wins), each of min(jobs,
    cpu_count()) fork-pool workers runs its share of the top-level branches."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and n >= 7:
        import multiprocessing as mp

        workers = min(jobs, mp.cpu_count())
        with mp.get_context("fork").Pool(workers) as pool:
            parts = pool.starmap(_brute_pass, [(n, w, workers) for w in range(workers)])
        return tuple(map(sum, zip(*parts)))
    return _brute_pass(n, 0, 1)


# --- volumes ---


def volume_bruteforce(n: int, *, jobs: int = 1) -> NormalizedVolume:
    """Volume of the cyclopermutohedron by the defining alternating sum over
    all (n-1)-subsets of generators, each contributing |det| (with the
    all-ones column) with sign (-1)^(#radials): n times the top of
    _brute_pass.  Cost grows as C(n(n+1)/2, n-1); refuse past BRUTE_MAX."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    if n > BRUTE_MAX:
        raise ValueError(f"n={n} exceeds bound={BRUTE_MAX}; use volume_by_forests or volume_closed_form")
    return NormalizedVolume(Fraction(n * _parallel_sum(n, jobs)[1]), n)


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
    each semiopen brick as the gcd of its maximal minors: lower + top of
    _brute_pass.  Refuse past BRUTE_MAX; use lattice_count_closed_form."""
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    if n > BRUTE_MAX:
        raise ValueError(f"n={n} exceeds bound={BRUTE_MAX}; use lattice_count_closed_form")
    return sum(_parallel_sum(n, jobs))


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
