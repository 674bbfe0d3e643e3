from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from cycloperm.forests import (
    DecoratedForest,
    LabeledForest,
    PartialDecoratedForest,
    enumerate_decorated_forests,
    enumerate_partial_decorated_forests,
)
from cycloperm.intlin import IntMatrix, determinant, semiopen_lattice_count
from cycloperm.zonotope import (
    NormalizedVolume,
    edge_vector,
    forest_columns,
    forest_det_matrix,
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
    volume_terms_by_forest,
)


def test_generator_vectors():
    assert edge_vector(3, 1, 3) == (-1, 0, 1)
    assert radial_vector(2, 1) == (-1, 1)
    assert radial_vector(2, 2) == (1, -1)
    assert radial_vector(3, 1) == (-2, 1, 1)
    assert ones_vector(4) == (1, 1, 1, 1)


def test_normalized_volume():
    v = NormalizedVolume(Fraction(9), 3)
    assert str(v) == "9/sqrt(3)"
    assert abs(v.approx() - 5.196152422706632) < 1e-12
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


def test_volume_terms_match_grouped_sum():
    for n in range(2, 6):
        total = sum(term for _, term in volume_terms_by_forest(n))
        assert Fraction(total) == volume_by_forests(n).coeff


def test_volume_bruteforce_jobs():
    assert volume_bruteforce(5, jobs=2) == volume_bruteforce(5)
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
    unit = forest_det_matrix(d, marks_as="unit")
    assert abs(determinant(unit)) == 2
    radial = forest_det_matrix(d, marks_as="radial")
    assert abs(determinant(radial)) == 3 * 2  # factor n per mark


def test_det_lemma_exhaustive_small():
    for n in range(2, 5):
        for d in enumerate_decorated_forests(n):
            N = d.free_tree_size
            assert abs(determinant(forest_det_matrix(d, marks_as="unit"))) == N
            assert abs(determinant(forest_det_matrix(d, marks_as="radial"))) == n ** d.mark_count * N


def _all_generator_selections(n: int):
    """All (edges, marks) with |edges| + |marks| = n - 1."""
    all_edges = list(combinations(range(1, n + 1), 2))
    for icount in range(n):
        mcount = n - 1 - icount
        if mcount < 0 or mcount > n:
            continue
        for edges in combinations(all_edges, icount):
            for marks in combinations(range(1, n + 1), mcount):
                yield edges, marks


def test_invalid_selections_have_zero_det():
    for n in (3, 4):
        valid = {(d.forest.edges, tuple(sorted(d.marked))) for d in enumerate_decorated_forests(n)}
        for edges, marks in _all_generator_selections(n):
            cols = [list(edge_vector(n, i, j)) for i, j in edges]
            cols += [list(radial_vector(n, k)) for k in marks]
            cols.append(list(ones_vector(n)))
            d = determinant(IntMatrix.from_columns(cols, dim=n))
            if (edges, marks) in valid:
                assert d != 0
            else:
                assert d == 0


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
            assert sharp_of_partial_forest(p) == semiopen_lattice_count(forest_columns(p))


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
    with pytest.raises(ValueError):
        lattice_count_bruteforce(1)
    with pytest.raises(ValueError):
        lattice_count_bruteforce(7)
    with pytest.raises(ValueError):
        lattice_count_closed_form(1)


def test_permutohedron_lattice_count():
    assert [permutohedron_lattice_count(n) for n in range(1, 6)] == [1, 2, 7, 38, 291]
    with pytest.raises(ValueError):
        permutohedron_lattice_count(0)
