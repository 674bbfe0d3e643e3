from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloperm import forests, zonotope
from cycloperm.cli import approx_string
from cycloperm.forests import forest_count, forest_gcd_sum
from cycloperm.intlin import det_rows
from cycloperm.oracle import (
    forest_selections,
    free_components,
    generator_selections,
    integer_partitions,
    sharp_of_partial_forest,
)
from cycloperm.zonotope import (
    NormalizedVolume,
    _brute_buckets,
    _columns,
    _minor_gcd,
    edge_vector,
    lattice_count_bruteforce,
    lattice_count_closed_form,
    permutohedron_lattice_count,
    permutohedron_volume,
    radial_vector,
    volume_bruteforce,
    volume_by_forests,
    volume_closed_form,
)
from tests.test_intlin import minor_gcd


def test_generator_vectors():
    assert edge_vector(3, 1, 3) == (-1, 0, 1)
    assert radial_vector(2, 1) == (-1, 1)
    assert radial_vector(2, 2) == (1, -1)
    assert radial_vector(3, 1) == (-2, 1, 1)
    assert _columns(3, ((1, 3),), (2,)) == [(-1, 0, 1), (1, -2, 1)]


def test_normalized_volume():
    v = NormalizedVolume(Fraction(9), 3)
    assert str(v) == "9/sqrt(3)"
    assert approx_string(v.coeff, v.radicand) == "5.19615242271"
    assert str(NormalizedVolume(Fraction(18), 1)) == "18"
    with pytest.raises(ValueError):
        NormalizedVolume(Fraction(1), 0)


# --- volumes ---


def test_volume_n2_terms():
    # three singleton subsets contribute +2, -2, -2
    v = volume_bruteforce(2)
    assert v == NormalizedVolume(Fraction(-2), 2)
    assert volume_by_forests(2) == v
    assert volume_closed_form(2) == v


def test_volume_routes_agree():
    for n in range(2, 6):
        assert volume_bruteforce(n) == volume_by_forests(n) == volume_closed_form(n)


def test_volume_vanishes():
    for n in range(3, 9):
        assert volume_by_forests(n).coeff == 0
        assert volume_closed_form(n).coeff == 0


def test_volume_bruteforce_jobs():
    # jobs is a validated cap; the pass runs in this process whatever it is
    assert volume_bruteforce(5, jobs=2) == volume_closed_form(5)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            volume_bruteforce(5, jobs=jobs)


def test_volume_bounds():
    with pytest.raises(ValueError):
        volume_bruteforce(1)
    with pytest.raises(ValueError):
        volume_bruteforce(zonotope.BRUTE_MAX + 1)
    with pytest.raises(ValueError):
        volume_by_forests(1)


def test_permutohedron_volume():
    assert permutohedron_volume(2) == NormalizedVolume(Fraction(2), 2)
    assert permutohedron_volume(3) == NormalizedVolume(Fraction(9), 3)
    for n in range(2, 7):
        assert permutohedron_volume(n).coeff == n ** (n - 1)


# --- forest determinants ---


def test_det_of_decorated_forest_examples():
    assert abs(det_rows(_columns(3, ((1, 2),), (3,)) + [(1, 1, 1)])) == 3 * 2  # n per mark times N(F)
    assert abs(det_rows(_columns(4, ((1, 2),), (3, 4)) + [(1, 1, 1, 1)])) == 4 ** 2 * 2


# --- the orbit pass over generator selections ---


def _generators(n):
    """The generators by index: the edges (i, j) in lexicographic order,
    then the radial marks 1..n."""
    return list(combinations(range(1, n + 1), 2)) + list(range(1, n + 1))


def _split(n, selection):
    """(edges, marks) of a selection of generator indices."""
    picked = [_generators(n)[g] for g in selection]
    return tuple(g for g in picked if isinstance(g, tuple)), tuple(g for g in picked if isinstance(g, int))


@pytest.mark.parametrize("n", range(2, 6))
def test_marks_sets_of_one_size_sum_alike(n):
    # the argument the pass's C(n, m) weights rest on, from the definition
    # alone: a permutation of [n] maps the generators onto themselves up to
    # sign and keeps the lattice, so every marks set of size m sums alike,
    # for the signed minor gcds on all n rows and for the signed
    # (n - 1)-selection |minors| on the first n - 1 rows
    terms = (
        (range(n - 1), minor_gcd),
        ((n - 1,), lambda cols: abs(det_rows([c[:-1] for c in cols]))),
    )
    for sizes, term in terms:
        sums = {}
        for edges, marks in generator_selections(n, sizes):
            sums[marks] = sums.get(marks, 0) + (-1) ** len(marks) * term(_columns(n, edges, marks))
        by_size = {}
        for marks, total in sums.items():
            by_size.setdefault(len(marks), set()).add(total)
        assert all(len(totals) == 1 for totals in by_size.values())
        prefixes = sum(math.comb(n, m) * sums[tuple(range(1, m + 1))] for m in by_size)
        assert prefixes == sum(sums.values())


@pytest.mark.parametrize("n", range(2, 7))
def test_brute_pass_is_the_definition(n):
    # bucket (m, k) sums (-1)^m times the minor gcd of every selection of m
    # radials and k generators, one term per selection, nothing grouped;
    # on the top level that gcd is the |minor on the first n - 1 rows|.
    # every[v] sums the same terms by the vertices v of the unmarked trees,
    # and top[v] those of n - 1 generators (a dependent selection adds 0)
    buckets, top, every = [[0] * n for _ in range(n)], [0] * (n + 1), [0] * (n + 1)
    for edges, marks in generator_selections(n, range(n)):
        term, k = (-1) ** len(marks) * minor_gcd(_columns(n, edges, marks)), len(edges) + len(marks)
        buckets[len(marks)][k] += term
        if term:
            v = sum(map(len, free_components(n, edges, marks)))
            every[v] += term
            if k == n - 1:
                top[v] += term
    assert _brute_buckets(n) == (buckets, top, every)
    lower = sum(sum(row[:-1]) for row in buckets)
    assert (sum(every) - sum(top), sum(top)) == (lower, sum(row[-1] for row in buckets))


@pytest.mark.parametrize("n", range(2, zonotope.BRUTE_MAX + 1))
def test_brute_pass_walk_size(monkeypatch, n):
    # the work, not a time: one gcd of minors per S_n-orbit of independent
    # selections, a partition of n into blocks with t_s <= mu_s of the mu_s
    # blocks of each size s marked, not all of them; a pass over set
    # partitions would take Bell-many
    gcd, calls = zonotope._minor_gcd, []
    monkeypatch.setattr(zonotope, "_minor_gcd", lambda columns: calls.append(columns) or gcd(columns))
    _brute_buckets(n)
    orbits = sum(math.prod(mu + 1 for mu in Counter(parts).values()) - 1 for parts in integer_partitions(n))
    assert len(calls) == orbits
    assert orbits == {8: 163, 10: 439}.get(n, orbits)


@pytest.mark.parametrize("rows", range(1, 4))
def test_minor_gcd_by_row_reduction_exhaustive(rows):
    # every matrix of 1 to rows + 1 columns over -1..2 with at most 6
    # entries (zero rows and dependent columns among them), and every
    # generator selection of n <= 5 on the first n - 1 rows
    for k in range(1, rows + 2):
        if rows * k <= 6:
            for entries in product(range(-1, 3), repeat=rows * k):
                columns = [entries[i:i + rows] for i in range(0, rows * k, rows)]
                assert _minor_gcd(columns) == minor_gcd(columns)
    n = rows + 2
    for edges, marks in generator_selections(n, range(n)):
        columns = [c[:-1] for c in _columns(n, edges, marks)]
        assert _minor_gcd(columns) == minor_gcd(columns)


@given(st.integers(1, 6), st.data())
def test_minor_gcd_by_row_reduction_random(rows, data):
    # random integer columns, with zero rows and a dependent column drawn in
    entry = st.integers(-12, 12)
    columns = data.draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=rows))
    dependent = bool(columns) and data.draw(st.booleans())
    if dependent:
        factors = data.draw(st.lists(st.integers(-3, 3), min_size=len(columns), max_size=len(columns)))
        columns.append([sum(a * c[r] for a, c in zip(factors, columns)) for r in range(rows)])
    zero = data.draw(st.sets(st.integers(0, rows - 1)))
    columns = [tuple(0 if r in zero else x for r, x in enumerate(c)) for c in columns]
    expected = minor_gcd(columns)
    assert _minor_gcd(columns) == expected
    assert not (dependent and expected)


# c[m][k] summed over k, per radial count m, and summed over m, per
# generator count k: the lattice count of CP_n(lambda) at t = 1 by powers
# of lambda, and at lambda = 1 by powers of the dilation t
_BUCKET_SUMS = {
    2: ([2, -2], [1, -1]),
    3: ([7, -15, 9], [1, 0, 0]),
    4: ([38, -124, 168, -64], [1, 2, 15, 0]),
    5: ([291, -1295, 2750, -2250, 625], [1, 5, 45, 70, 0]),
    6: ([2932, -16386, 48330, -61200, 35640, -7776], [1, 9, 105, 345, 1080, 0]),
    7: (
        [36961, -253113, 938007, -1624105, 1452605, -655473, 117649],
        [1, 14, 210, 1050, 4410, 6846, 0],
    ),
}


@pytest.mark.parametrize("n", range(2, 8))
def test_brute_buckets_by_radials_and_generators(n):
    # m radials and k generators; the radial sign is in the buckets, both
    # sums of the table give the lattice count, and the absolute sums by
    # radial count give the points of the zonotope sum(q_ij) + sum(r_i)
    buckets, top, every = _brute_buckets(n)
    assert all(row[:m] == [0] * m for m, row in enumerate(buckets))
    by_radials, by_generators = _BUCKET_SUMS[n]
    assert [sum(row) for row in buckets] == by_radials
    assert [sum(column) for column in zip(*buckets)] == by_generators
    assert (sum(top), sum(every)) == (by_generators[-1], sum(by_generators))
    assert sum(by_radials) == lattice_count_closed_form(n)
    assert sum(map(abs, by_radials)) == _UNSIGNED[n][1]


# n * top and lower + top with every radial sign +1: the volume
# n^(n-1) 2^(n-2) (n+1) and the points of the zonotope sum(q_ij) + sum(r_i),
# which at n = 6 are 2932 + 16386 + 48330 + 61200 + 35640 + 7776, the
# absolute coefficients of the lattice count by radial count
_UNSIGNED = {
    2: (6, 4),
    3: (72, 31),
    4: (1_280, 394),
    5: (30_000, 7_211),
    6: (870_912, 172_264),
    7: (30_118_144, 5_077_913),
    8: (1_207_959_552, 177_641_412),
}


@pytest.mark.parametrize("n", range(2, zonotope.BRUTE_MAX + 1))
def test_unsigned_sums_keep_the_top_level(monkeypatch, n):
    # the signed top is 0 for every n >= 3, so a pass that dropped its top
    # level would pass the signed checks from n = 3 on
    monkeypatch.setattr(zonotope, "_RADIAL_SIGN", 1)
    _, top, every = _brute_buckets(n)
    assert n * sum(top) == n ** (n - 1) * 2 ** (n - 2) * (n + 1)
    if n in _UNSIGNED:
        volume, points = _UNSIGNED[n]
        assert volume == n * sum(top)
        assert sum(every) == points


def _ones_column_identity(n, edges, marks):
    # Adding every row to the last turns it into (0, ..., 0, n): each
    # generator column sums to 0 and the ones column to n.  Expanding along
    # that row gives det[C | 1] = n * det(C on the first n - 1 rows), sign
    # included.
    cols = _columns(n, edges, marks)
    assert det_rows(cols + [(1,) * n]) == n * det_rows([c[:-1] for c in cols])


def test_det_with_ones_column_is_n_times_top_minor():
    for n in range(2, 6):
        for edges, marks in generator_selections(n, (n - 1,)):
            _ones_column_identity(n, edges, marks)


@given(st.integers(6, 7), st.data())
def test_det_with_ones_column_random_selections(n, data):
    generators = st.integers(0, len(_generators(n)) - 1)
    selection = data.draw(st.lists(generators, min_size=n - 1, max_size=n - 1, unique=True))
    _ones_column_identity(n, *_split(n, selection))


# --- sharp and lattice counts ---


def test_sharp_examples():
    assert sharp_of_partial_forest(3, ((1, 2),), (3,)) == 2
    assert sharp_of_partial_forest(3, (), (1, 2)) == 3
    assert sharp_of_partial_forest(3, (), (1,)) == 1
    assert sharp_of_partial_forest(3, (), ()) == 1
    with pytest.raises(ValueError, match="no partial decorated forest"):
        sharp_of_partial_forest(3, ((1, 2),), (1, 2))


def test_sharp_matches_minor_gcd():
    for n in range(2, 6):
        for edges, marks in forest_selections(n, range(n)):
            assert sharp_of_partial_forest(n, edges, marks) == minor_gcd(_columns(n, edges, marks))


def test_lattice_count_known_values():
    assert lattice_count_bruteforce(2) == 0
    assert lattice_count_bruteforce(3) == 1
    assert lattice_count_bruteforce(4) == 18
    assert lattice_count_closed_form(2) == 0
    assert lattice_count_closed_form(3) == 1
    assert lattice_count_closed_form(4) == 18


def test_lattice_count_routes_agree_n5():
    assert lattice_count_bruteforce(5) == lattice_count_closed_form(5) == 121


def test_lattice_count_jobs():
    assert lattice_count_bruteforce(5, jobs=2) == lattice_count_closed_form(5)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            lattice_count_bruteforce(4, jobs=jobs)


def test_lattice_count_bounds():
    # every n accepted: both routes read one pass, checked by definition
    for n in range(2, zonotope.BRUTE_MAX + 1):
        assert lattice_count_bruteforce(n) == lattice_count_closed_form(n)
        assert volume_bruteforce(n) == volume_closed_form(n)
    assert lattice_count_bruteforce(8) == 348_852
    with pytest.raises(ValueError):
        lattice_count_bruteforce(1)
    with pytest.raises(ValueError):
        lattice_count_bruteforce(zonotope.BRUTE_MAX + 1)
    with pytest.raises(ValueError):
        lattice_count_closed_form(1)


def _parent_closed_forms(n_max: int) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    # the forest-sum volume and the lattice formula term by term in Fraction,
    # with F_d and Phi from their own recurrence and totient by gcd count
    one = Fraction(1)
    tables = {}
    for d in range(1, n_max + 1):
        f = [one]
        for m in range(1, n_max + 1):
            f.append(sum(
                Fraction(math.comb(m - 1, k - 1)) * Fraction(k) ** max(k - 2, 0) * f[m - k]
                for k in range(d, m + 1, d)
            ))
        tables[d] = f
    gcd_sum = {
        v: sum(sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) * tables[d][v] for d in range(1, v + 1) if v % d == 0)
        for v in range(1, n_max + 1)
    }
    volumes, lattice = {}, {}
    for n in range(2, n_max + 1):
        x, a = Fraction(-n), Fraction(-1)
        volumes[n] = sum(
            Fraction(math.comb(n, N)) * Fraction(N) ** (N - 1)
            * (one if N == n else x * (x - a * (n - N)) ** (n - N - 1))
            for N in range(1, n + 1)
        )
        lattice[n] = tables[1][n] - sum(
            Fraction(math.comb(n, v)) * Fraction(-v) ** (n - v - 1) * gcd_sum[v] for v in range(1, n)
        )
    return volumes, lattice


def test_closed_forest_routes_equal_the_fraction_formulas():
    volumes, lattice = _parent_closed_forms(60)
    for n in range(2, 61):
        assert volume_by_forests(n) == NormalizedVolume(volumes[n], n)
        assert lattice_count_closed_form(n) == lattice[n]


class _NoMath:
    def __getattr__(self, name):
        raise AssertionError(f"math.{name} called on a repeat")


def _recomputed(*args):
    raise AssertionError(f"recomputed with arguments {args}")


@pytest.mark.parametrize("n", [2, 3, 20, 41])
def test_closed_routes_answer_a_repeat_from_the_tables(monkeypatch, n):
    # each table entry is computed once per process: after one call each, a
    # repeat reaches neither the F_d builder, nor Phi, nor any arithmetic
    routes = (lattice_count_closed_form, volume_by_forests, forest_gcd_sum, forest_count)
    first = [route(n) for route in routes]
    monkeypatch.setattr(forests, "_forests_divisible", _recomputed)
    monkeypatch.setattr(zonotope, "forest_gcd_sum", _recomputed)
    monkeypatch.setattr(zonotope, "math", _NoMath())
    assert [route(n) for route in routes] == first
    assert [route(n) for route in reversed(routes)] == first[::-1]


@pytest.mark.parametrize("n, first", [(2, volume_bruteforce), (5, lattice_count_bruteforce)])
def test_brute_routes_answer_a_repeat_from_the_table(monkeypatch, n, first):
    # one pass per n per process: after one call of either route, both
    # routes in either order return the stored answers, building no value,
    # and still validate jobs and n before the table is read
    first(n)
    routes = (volume_bruteforce, lattice_count_bruteforce)
    values = [volume_closed_form(n), lattice_count_closed_form(n)]
    monkeypatch.setattr(zonotope, "_brute_buckets", _recomputed)
    monkeypatch.setattr(zonotope, "NormalizedVolume", _recomputed)
    monkeypatch.setattr(zonotope, "Fraction", _recomputed)
    monkeypatch.setattr(zonotope, "math", _NoMath())
    assert [route(n) for route in routes] == values
    assert [route(n) for route in reversed(routes)] == values[::-1]
    stored = zonotope._BRUTE_SUMS[n]
    assert all(route(n) is answer for route, answer in zip(routes, stored))
    for outside in (1, zonotope.BRUTE_MAX + 1):
        monkeypatch.setitem(zonotope._BRUTE_SUMS, outside, stored)
    for route in routes:
        with pytest.raises(ValueError, match="jobs"):
            route(n, jobs=0)
        for outside in (1, zonotope.BRUTE_MAX + 1):
            with pytest.raises(ValueError, match="too small|exceeds"):
                route(outside)


def test_permutohedron_lattice_count():
    assert [permutohedron_lattice_count(n) for n in range(1, 6)] == [1, 2, 7, 38, 291]
    with pytest.raises(ValueError):
        permutohedron_lattice_count(0)
