"""Permutohedron and cyclopermutohedron: exact volumes and lattice counts.

The cyclopermutohedron is a virtual zonotope: the formal difference of a
Minkowski sum of edge segments q_ij = [0, e_j - e_i] and radial segments
r_i = [0, e - n e_i], translated by e = (1,...,1).  Its volume and its
lattice-point count are alternating sums over generator selections, plain
(edges, marks) tuples that _columns turns into columns; both sums
collapse to closed forms through decorated forests, the selections that
`oracle` defines as such.  The brute routes evaluate the sums as
defined, with equal terms grouped: a selection's semiopen brick
(Stanley's half-open parallelepiped) has the gcd of its maximal minors
as its points, and a permutation of [n] permutes the generators up to
sign and keeps the lattice, so one representative per S_n-orbit of
selections gives the gcd of all, taken by row reduction.
One pass per n gives both answers, stored finished in _brute_sums: the
volume is n times its top level, since det[C | 1] = n * det(C on the
first n - 1 rows), and the lattice count adds the lower levels.  Both
are kept by unmarked vertex count too, for linkage's forest volume.

A volume in R^n along the hyperplane sum(x) = const is c / sqrt(n); the
exact rational c and the radicand n travel together in NormalizedVolume.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .forests import NormalizedVolume, _abel, forest_count, forest_gcd_sum


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


# --- generator columns ---


def _columns(n: int, edges, marks) -> list[tuple[int, ...]]:
    """Generator columns of a selection: one edge vector per edge, then one
    radial vector per mark, in the given orders."""
    return [edge_vector(n, i, j) for i, j in edges] + [radial_vector(n, k) for k in marks]


# --- the defining sums by S_n-orbits of generator selections ---


# Largest n that the brute routes accept, for a 1 s budget with room for
# the 3-4x swing in machine speed seen between sessions: as a command on a
# 2-vCPU AMD EPYC machine (Python 3.11), `cyclo points --method brute` took
# 0.18 s at n = 16 and 0.28 s at n = 17, with 15 MB peak RSS.
BRUTE_MAX = 16

# The sign of a radial in the defining sums; +1 gives those of sum(q_ij) + sum(r_i).
_RADIAL_SIGN = -1


def _block_sizes(n: int, top: int):
    """The partitions of n into parts <= top, as (size, multiplicity) pairs."""
    if n == 0:
        yield ()
    for s in range(min(n, top), 0, -1):
        for mu in range(1, n // s + 1):
            for rest in _block_sizes(n - s * mu, s - 1):
                yield ((s, mu),) + rest


def _minor_gcd(columns) -> int:
    """The gcd of the maximal minors of integer columns, 0 when they are
    dependent.  Row operations of determinant +-1 keep it, so Euclid on the
    rows, column by column, leaves a triangular block whose |det| it is."""
    rows = [list(row) for row in zip(*columns)]
    if len(columns) > len(rows):
        return 0
    g = 1
    for j in range(len(columns)):
        for i in range(j + 1, len(rows)):
            while rows[i][j]:
                q = rows[j][j] // rows[i][j]
                rows[j], rows[i] = rows[i], [x - q * y for x, y in zip(rows[j], rows[i])]
        g *= abs(rows[j][j])
    return g


def _brute_buckets(n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """(c, top, every) of the defining sum, by S_n-orbits: c[m][k] over the
    selections of m radials and k generators, top[v] and every[v] over those
    of v unmarked vertices and n - 1 or any number of generators.  An
    independent selection is a forest with at most one mark per tree and
    some tree unmarked (at n - 1 generators, exactly one: the free tree);
    its lattice depends only on the partition into trees (the incidence
    matrix is totally unimodular) and the marked blocks.  An orbit is a
    multiset of blocks (size s, marked t): n! / prod(s!^mu t! (mu - t)!)
    partitions, s^(s - 2) trees (Cayley) and s places per mark, and one gcd
    of minors, taken on consecutive blocks with path edges and each mark at
    its block's least vertex."""
    c, top, every = [[0] * n for _ in range(n)], [0] * (n + 1), [0] * (n + 1)
    for sizes in _block_sizes(n, n):
        for marked in product(*(range(mu + 1) for _, mu in sizes)):
            if all(t == mu for t, (_, mu) in zip(marked, sizes)):
                continue  # a mark on every tree: n generators
            weight, edges, marks, first, v = math.factorial(n), [], [], 1, n
            for (s, mu), t in zip(sizes, marked):
                weight //= math.factorial(s) ** mu * math.factorial(t) * math.factorial(mu - t)
                weight *= s ** (mu * max(s - 2, 0) + t)
                v -= s * t
                for b in range(mu):
                    edges += [(u, u + 1) for u in range(first, first + s - 1)]
                    marks += [first] * (b < t)
                    first += s
            g = _minor_gcd([col[:-1] for col in _columns(n, edges, marks)])
            term, k = _RADIAL_SIGN ** len(marks) * weight * g, len(edges) + len(marks)
            c[len(marks)][k] += term
            every[v] += term
            top[v] += term * (k == n - 1)
    return c, top, every


# n -> (volume, lattice count, top, every) by the defining sums, kept for the
# life of the process like _FOREST_VOLUMES: one pass per n, stored finished.
_BRUTE_SUMS: dict[int, tuple[NormalizedVolume, int, tuple[int, ...], tuple[int, ...]]] = {}


def _brute_sums(n: int, jobs: int) -> tuple[NormalizedVolume, int, tuple[int, ...], tuple[int, ...]]:
    """(n * sum(top) / sqrt(n), sum(every), top, every) of _brute_buckets(n),
    once per process; jobs is validated on every call but not used."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    sums = _BRUTE_SUMS.get(n)
    if sums is not None:
        return sums
    _, top, every = _brute_buckets(n)
    sums = _BRUTE_SUMS[n] = NormalizedVolume(n * sum(top), n), sum(every), tuple(top), tuple(every)
    return sums


# --- volumes ---


def volume_bruteforce(n: int, *, jobs: int = 1) -> NormalizedVolume:
    """Volume of the cyclopermutohedron by the defining alternating sum over
    all (n-1)-subsets of generators, each contributing |det| (with the
    all-ones column) with sign (-1)^(#radials): the stored volume of
    _brute_sums.  Cost grows with the orbits, not the subsets: about 2 ms
    at n = 8 and 0.15 s at n = 16 on a cold pass; refuse past BRUTE_MAX."""
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
