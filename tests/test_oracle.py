from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloperm.cli import approx_string
from cycloperm.oracle import (
    SEMIOPEN_DIRECT_MAX,
    forest_selections,
    hexagon_area_direct,
    hits_wall_by_subsets,
    permutohedron_lattice_points_direct,
    semiopen_count_direct,
    sharp_of_partial_forest,
)
from cycloperm.zonotope import _columns, permutohedron_lattice_count, permutohedron_volume
from tests.test_intlin import WORKED_MATRICES, minor_gcd


def test_permutohedron_points_direct():
    assert [permutohedron_lattice_points_direct(n) for n in range(1, 6)] == [1, 2, 7, 38, 291]
    with pytest.raises(ValueError):
        permutohedron_lattice_points_direct(6)
    with pytest.raises(ValueError):
        permutohedron_lattice_points_direct(0)


def test_permutohedron_points_direct_matches_formula():
    for n in range(1, 6):
        assert permutohedron_lattice_points_direct(n) == permutohedron_lattice_count(n)


def test_semiopen_direct_basics():
    assert semiopen_count_direct([]) == 1
    assert semiopen_count_direct([(2, 2)]) == 2
    assert semiopen_count_direct([(1, 2), (2, 4)]) == 0
    assert semiopen_count_direct([(1, 0), (1, 2)]) == 2
    assert semiopen_count_direct([(1, 0), (0, 1)]) == 1
    assert semiopen_count_direct([(2, 0), (0, 3)]) == 6
    assert semiopen_count_direct([(0, 0)]) == 0
    # more columns than rows can never be independent
    assert semiopen_count_direct([(1,), (2,)]) == 0
    for columns in ([(1, 0), (1,)], [(1,), (1, 0)], [(1, 2, 3), (0, 1)]):
        with pytest.raises(ValueError, match="ragged columns"):
            semiopen_count_direct(columns)
    # the box of 2001^2 points is over the limit
    assert 2001 ** 2 > SEMIOPEN_DIRECT_MAX
    with pytest.raises(ValueError, match="bounding box exceeds"):
        semiopen_count_direct([(2000, 0), (0, 2000)])


def test_semiopen_direct_worked_matrices():
    for columns, expected in WORKED_MATRICES:
        assert semiopen_count_direct(columns) == expected


def test_semiopen_direct_matches_minor_gcd_random():
    rng = random.Random(555)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, min(rows, 3))
        columns = list(zip(*[[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]))
        assert semiopen_count_direct(columns) == minor_gcd(columns)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5)
    .flatmap(lambda rows: st.tuples(st.just(rows), st.integers(1, rows)))
    .flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)
def test_semiopen_direct_matches_minor_gcd(rows):
    # dependent columns (count 0) come up too
    columns = list(zip(*rows))
    assert semiopen_count_direct(columns) == minor_gcd(columns)


def test_semiopen_direct_matches_sharp_formula():
    for n in range(2, 5):
        for edges, marks in forest_selections(n, range(n)):
            assert semiopen_count_direct(_columns(n, edges, marks)) == sharp_of_partial_forest(n, edges, marks)


def test_hits_wall_by_subsets():
    assert hits_wall_by_subsets([1, 2, 3])  # {3} against {1, 2}
    assert not hits_wall_by_subsets([1, 1, 1])  # an odd total has no half
    assert hits_wall_by_subsets([Fraction(1, 2), Fraction(3, 2), 1])
    # an odd total past float precision: half of it is no subset sum, exactly
    assert not hits_wall_by_subsets([2**60, 2**60 + 1, 2])


def test_hexagon_area():
    area = hexagon_area_direct()
    assert area == permutohedron_volume(3)
    assert area.coeff == 9
    assert area.radicand == 3
    assert approx_string(area.coeff, area.radicand) == "5.19615242271"
