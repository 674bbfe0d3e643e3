from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloperm import forests, zonotope
from cycloperm.cli import approx_string
from cycloperm.forests import (
    DecoratedForest,
    LabeledForest,
    PartialDecoratedForest,
    enumerate_partial_decorated_forests,
    forest_count,
    forest_gcd_sum,
)
from cycloperm.intlin import det_rows
from cycloperm.oracle import generator_selections
from cycloperm.zonotope import (
    NormalizedVolume,
    _brute_pass,
    _columns,
    _generators,
    _walk,
    _wedge_tables,
    edge_vector,
    forest_columns,
    lattice_count_bruteforce,
    lattice_count_closed_form,
    ones_vector,
    permutohedron_lattice_count,
    permutohedron_volume,
    radial_vector,
    sharp_of_partial_forest,
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
    assert ones_vector(4) == (1, 1, 1, 1)


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
    # n = 7 is the first n that forks the pool
    assert volume_bruteforce(7, jobs=2) == volume_closed_form(7)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            volume_bruteforce(5, jobs=jobs)


def test_volume_bounds():
    with pytest.raises(ValueError):
        volume_bruteforce(1)
    with pytest.raises(ValueError):
        volume_bruteforce(8)
    with pytest.raises(ValueError):
        volume_by_forests(1)


def test_permutohedron_volume():
    assert permutohedron_volume(2) == NormalizedVolume(Fraction(2), 2)
    assert permutohedron_volume(3) == NormalizedVolume(Fraction(9), 3)
    for n in range(2, 7):
        assert permutohedron_volume(n).coeff == n ** (n - 1)


# --- forest determinants ---


def test_det_of_decorated_forest_examples():
    d = DecoratedForest(LabeledForest(3, [(1, 2)]), [3])
    assert abs(det_rows(forest_columns(d) + [ones_vector(3)])) == 3 * 2  # n per mark times N(F)
    d = DecoratedForest(LabeledForest(4, [(1, 2)]), [3, 4])
    assert abs(det_rows(forest_columns(d) + [ones_vector(4)])) == 4 ** 2 * 2


# --- the walk over generator selections ---


def _split(n, selection):
    """(edges, marks) of a selection of generator indices."""
    picked = [_generators(n)[g] for g in selection]
    return tuple(g for g in picked if isinstance(g, tuple)), tuple(g for g in picked if isinstance(g, int))


@given(st.integers(2, 5), st.integers(1, 4))
def test_strided_passes_cover_every_selection_once(n, workers):
    # the walk's nodes, and each node at n - 2 paired with every later
    # generator as _brute_pass pairs it
    tables = _wedge_tables(n)
    seen = []
    for w in range(workers):
        for selection, _, _ in _walk(n, tables, n - 2, w, workers):
            seen.append(selection)
            if len(selection) == n - 2:
                first = selection[-1] + 1 if selection else 0
                seen.extend(selection + (g,) for g in range(first, len(tables)))
    assert len(set(seen)) == len(seen)
    serial = list(generator_selections(n, range(n)))
    assert sorted(_split(n, s) for s in seen) == sorted(serial)
    assert len(serial) == sum(math.comb(n * (n + 1) // 2, k) for k in range(n))


def test_walk_coordinates_are_the_minors():
    # every node against the Bareiss minors of its columns on the first
    # n - 1 rows, ascending, sign included
    for n in range(2, 6):
        for selection, state, marks in _walk(n, _wedge_tables(n), n - 1):
            edges, radials = _split(n, selection)
            cols = _columns(n, edges, radials)
            minors = {}
            for picked in combinations(range(n - 1), len(cols)):
                d = det_rows([[c[r] for c in cols] for r in picked])
                if d:
                    minors[sum(1 << r for r in picked)] = d
            assert state == minors
            assert marks == len(radials)


@pytest.mark.parametrize("n", range(2, 6))
def test_brute_pass_is_the_definition(n):
    # lower: the signed minor gcds of the selections of at most n - 2
    # generators; top: the signed |minor on the first n - 1 rows| of the
    # (n - 1)-selections
    lower = sum((-1) ** len(m) * minor_gcd(_columns(n, e, m)) for e, m in generator_selections(n, range(n - 1)))
    top = sum(
        (-1) ** len(m) * abs(det_rows([c[:-1] for c in _columns(n, e, m)]))
        for e, m in generator_selections(n, (n - 1,))
    )
    for workers in (1, 2, 3):
        parts = [_brute_pass(n, w, workers) for w in range(workers)]
        assert tuple(map(sum, zip(*parts))) == (lower, top)


@pytest.mark.parametrize("n", range(2, 7))
def test_brute_pass_walk_size(n, monkeypatch):
    # the work, not a time: across the workers, the pass visits the
    # selections of at most n - 2 generators once each and takes one
    # |minor| per (n - 1)-selection
    walk, nodes, pairs = zonotope._walk, [], []

    def counted_walk(*args):
        for node in walk(*args):
            nodes.append(len(node[0]))
            yield node

    monkeypatch.setattr(zonotope, "_walk", counted_walk)
    monkeypatch.setattr(zonotope, "abs", lambda x: pairs.append(x) or abs(x), raising=False)
    generators = n * (n + 1) // 2
    for workers in (1, 2):
        nodes.clear()
        pairs.clear()
        for w in range(workers):
            _brute_pass(n, w, workers)
        assert len(nodes) == sum(math.comb(generators, k) for k in range(n - 1))
        assert max(nodes) == n - 2
        assert len(pairs) == math.comb(generators, n - 1)


def _ones_column_identity(n, edges, marks):
    # Adding every row to the last turns it into (0, ..., 0, n): each
    # generator column sums to 0 and the ones column to n.  Expanding along
    # that row gives det[C | 1] = n * det(C on the first n - 1 rows), sign
    # included.
    cols = _columns(n, edges, marks)
    assert det_rows(cols + [ones_vector(n)]) == n * det_rows([c[:-1] for c in cols])


def test_det_with_ones_column_is_n_times_top_minor():
    for n in range(2, 6):
        for edges, marks in generator_selections(n, (n - 1,)):
            _ones_column_identity(n, edges, marks)


@given(st.integers(6, 7), st.data())
def test_det_with_ones_column_random_selections(n, data):
    generators = st.integers(0, len(_generators(n)) - 1)
    selection = data.draw(st.lists(generators, min_size=n - 1, max_size=n - 1, unique=True))
    _ones_column_identity(n, *_split(n, selection))


def test_dropped_row_keeps_the_brick_count():
    # the walk's gcd on n - 1 rows is the minor gcd on all n rows
    for n in range(2, 6):
        for selection, state, _ in _walk(n, _wedge_tables(n), n - 1):
            columns = _columns(n, *_split(n, selection))
            assert math.gcd(*state.values()) == minor_gcd(columns)


# --- sharp and lattice counts ---


def test_sharp_examples():
    n3 = LabeledForest(3, [(1, 2)])
    assert sharp_of_partial_forest(PartialDecoratedForest(n3, [3])) == 2
    assert sharp_of_partial_forest(PartialDecoratedForest(LabeledForest(3), [1, 2])) == 3
    assert sharp_of_partial_forest(PartialDecoratedForest(LabeledForest(3), [1])) == 1
    assert sharp_of_partial_forest(PartialDecoratedForest(LabeledForest(3))) == 1


def test_sharp_matches_minor_gcd():
    for n in range(2, 6):
        for p in enumerate_partial_decorated_forests(n):
            assert sharp_of_partial_forest(p) == minor_gcd(forest_columns(p))


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
    assert lattice_count_bruteforce(7, jobs=2) == lattice_count_closed_form(7)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            lattice_count_bruteforce(4, jobs=jobs)


def test_lattice_count_bounds():
    with pytest.raises(ValueError):
        lattice_count_bruteforce(1)
    with pytest.raises(ValueError):
        lattice_count_bruteforce(8)
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


def test_permutohedron_lattice_count():
    assert [permutohedron_lattice_count(n) for n in range(1, 6)] == [1, 2, 7, 38, 291]
    with pytest.raises(ValueError):
        permutohedron_lattice_count(0)
