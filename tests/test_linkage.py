from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cycloperm import linkage
from cycloperm.cli import approx_string
from cycloperm.linkage import (
    CyclicPartition,
    LinkageError,
    LongestNotLastError,
    NonPositiveLengthError,
    TriangleViolationError,
    WallHitError,
    a_profile,
    betti_vector,
    enumerate_cells,
    equilateral_volume,
    euler_characteristic,
    f_vector,
    is_refinement,
    is_short,
    moduli_volume_forests,
    moduli_volume_theorem,
    validate,
)
from cycloperm.oracle import f_vector_by_partitions, hits_wall_by_subsets, profile_by_subsets
from cycloperm.verification import _random_linkage
from cycloperm.zonotope import NormalizedVolume
from tests.test_zonotope import _NoMath, _recomputed

TORUS = validate(("1.2", 1, 1, "0.8", "2.2"))
PENTAGON = validate((1, 1, 1, 1, 1))
SPHERE = validate((1, 1, 1, 1, "3.5"))


def test_validation_errors():
    # where two checks fail, the first in the documented order wins
    with pytest.raises(NonPositiveLengthError):
        validate((0, 1, 1))
    with pytest.raises(NonPositiveLengthError):
        validate((0, 3, 2))  # also out of order
    with pytest.raises(NonPositiveLengthError):
        validate((-1, 5, 2))
    with pytest.raises(LongestNotLastError):
        validate((1, 3, 2))  # also a wall: 1 + 2 = 3
    with pytest.raises(WallHitError):
        validate((1, 1, 2))  # room = 0, so also a triangle violation
    with pytest.raises(TriangleViolationError):
        validate((2, 1, 1, 5))  # room < 0
    with pytest.raises(TriangleViolationError):
        validate((1, 2, 9))
    with pytest.raises(LinkageError):
        validate(())


def test_linkage_spec_basics():
    assert TORUS.n == 4
    assert TORUS.bar_count == 5
    assert TORUS.half_perimeter == Fraction(31, 10)
    assert TORUS.lengths[0] == Fraction(6, 5)
    # coercion accepts decimal floats
    assert validate((1.2, 1, 1, 0.8, 2.2)).lengths == TORUS.lengths


def test_is_short():
    assert is_short(TORUS, {5})
    assert is_short(TORUS, {4, 5})
    assert not is_short(TORUS, {1, 5})
    assert not is_short(TORUS, {1, 2, 3})
    with pytest.raises(ValueError):
        is_short(TORUS, set())
    with pytest.raises(ValueError):
        is_short(TORUS, {0, 1})


def test_short_sets_closed_under_shrinking():
    # any subset of a short set containing the last bar stays short
    for spec in (TORUS, PENTAGON, SPHERE):
        nplus = spec.bar_count
        from itertools import combinations

        for r in range(1, nplus + 1):
            for s in combinations(range(1, nplus + 1), r):
                if nplus in s and is_short(spec, s):
                    for t in combinations(s, r - 1):
                        if nplus in t:
                            assert is_short(spec, t)


def test_a_profiles():
    assert a_profile(TORUS) == (1, 1, 0, 0, 0)
    assert a_profile(PENTAGON) == (1, 4, 0, 0, 0)
    assert a_profile(SPHERE) == (1, 0, 0, 0, 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)), min_size=3, max_size=8))
def test_subset_sum_dps_match_enumeration(pairs):
    # small numerators over mixed denominators: walls are frequent.  Each
    # kernel is forced in turn: the dict DP by a zero row width, the packed
    # rows by an unbounded one
    lengths = sorted(Fraction(v, d) for v, d in pairs)
    wall = hits_wall_by_subsets(lengths)
    for row_bits in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linkage, "_PACKED_ROW_BITS", row_bits)
            try:
                spec = validate(lengths)
            except WallHitError:
                assert wall
                continue
            except TriangleViolationError:  # raised only past the wall check
                assert not wall
                continue
        assert not wall
        assert a_profile(spec) == profile_by_subsets(spec)
        assert f_vector(spec) == f_vector_by_partitions(spec)


def test_packed_fields_hold_the_largest_count():
    # 12 bars of 1 before the last: a_5 = C(12, 5) = 792 fills 10 of a field's 13 bits
    assert a_profile(validate((1,) * 13)) == tuple(math.comb(12, k) if k <= 5 else 0 for k in range(13))


_ASCII_RATIONAL = re.compile(r"[0-9]+(/[0-9]+)?")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/.+- _e\u0663\u00b2\uff15", max_size=8))
@example("3 /4")
@example("\u0663/4")
@example("1_0")
@example("3/0")
@example("06/04")
def test_coercion_matches_fraction(text):
    # the value or the exception type of Fraction(text); and only ASCII
    # digit strings p or p/q skip Fraction's parser
    parsed = []

    class Recording(Fraction):
        def __new__(cls, *args):
            parsed.extend(a for a in args if isinstance(a, str))
            return Fraction(*args)

    try:
        expected = Fraction(text)
    except Exception as exc:
        with pytest.raises(type(exc)):
            linkage._as_fraction(text)
    else:
        got = linkage._as_fraction(text)
        assert type(got) is Fraction and got == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linkage, "Fraction", Recording)
        try:
            linkage._as_fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    assert (text in parsed) == (_ASCII_RATIONAL.fullmatch(text) is None)


def test_coercion_keeps_a_fraction():
    x = Fraction(6, 5)
    assert linkage._as_fraction(x) is x
    assert linkage._as_fraction(1.2) == x


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)), min_size=10, max_size=20))
def test_f_vector_beyond_enumeration(pairs):
    # past the reach of the set-partition enumeration: the f-vector's Euler
    # characteristic is the Betti numbers', and every k-cell count is a
    # multiple of the (n-k)! cyclic arrangements of one partition
    try:
        spec = validate(sorted(Fraction(v, d) for v, d in pairs))
    except LinkageError:
        return
    f = f_vector(spec)
    b = betti_vector(spec)
    assert sum((-1) ** k * x for k, x in enumerate(f)) == sum((-1) ** k * x for k, x in enumerate(b))
    assert all(x >= 0 and x % math.factorial(spec.n - k) == 0 for k, x in enumerate(f))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)), min_size=3, max_size=10))
def test_short_sets_by_the_complement_identity(pairs):
    # s_j = C(n, j) - a_{n-j} + a_{j-1} short j-subsets of all n + 1 bars
    try:
        spec = validate(sorted(Fraction(v, d) for v, d in pairs))
    except LinkageError:
        return
    n, prof = spec.n, a_profile(spec)

    def a(k):  # a_k, and a_{-1} = 0
        return prof[k] if k >= 0 else 0

    ints = [int(12 * x) for x in spec.lengths]  # 12 is a multiple of every denominator
    total = sum(ints)
    for j in range(n + 2):
        short = sum(1 for sub in combinations(ints, j) if 2 * sum(sub) < total)
        assert short == math.comb(n, j) - a(n - j) + a(j - 1)


# small linkages whose sums are dense: the packed kernel builds their table
DENSE = (("1.2", 1, 1, "0.8", "2.2"), (1,) * 13, [Fraction(v, 8) for v in range(20, 32)] + [Fraction(33, 8)])


def _kernel_calls(monkeypatch) -> list[str]:
    calls = []
    for name in ("_packed_sums", "_subset_sums"):
        kernel = getattr(linkage, name)
        monkeypatch.setattr(linkage, name, lambda *args, k=kernel, name=name: calls.append(name) or k(*args))
    return calls


def test_dense_sums_take_the_packed_rows(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    for lengths in DENSE:
        calls.clear()
        validate(lengths)
        assert calls == ["_packed_sums"]


def test_wide_sums_take_the_dict_table(monkeypatch):
    # pairwise-coprime denominators, and a long run of equal bars
    calls = _kernel_calls(monkeypatch)
    odd_primes = [p for p in range(3, 60) if all(p % q for q in range(2, p))][:16]
    coprime = sorted(1 + Fraction(1, p) for p in odd_primes)
    for lengths in (coprime, (1,) * 301):
        calls.clear()
        validate(lengths)
        assert calls == ["_subset_sums"]


def test_table_built_once_at_validation(monkeypatch):
    calls = []
    table = linkage._short_table
    monkeypatch.setattr(linkage, "_short_table", lambda *args: calls.append(args) or table(*args))
    for lengths in DENSE:
        calls.clear()
        spec = validate(lengths)
        assert len(calls) == 1
        a_profile(spec)
        betti_vector(spec)
        moduli_volume_theorem(spec)
        f_vector(spec)
        euler_characteristic(spec)
        assert len(calls) == 1


def _table_steps(ints: list[int]) -> int:
    """The steps of `_subset_sums` over the first n of these scaled lengths:
    per bar x with limit >= 0, 1 + len(ways[k]) for k <= min(i, limit // x),
    with ways the table over the i larger bars before it."""
    *rest, last = ints
    room = sum(rest) - last
    order = sorted(rest, reverse=True)
    steps = 0
    for i, x in enumerate(order):
        limit = room // 2 - x
        if limit >= 0:
            ways = linkage._subset_sums(order[:i], room)
            steps += sum(1 + len(ways[k]) for k in range(min(i, limit // x) + 1))
    return steps


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 4, 10]).flatmap(
        lambda den: st.lists(st.tuples(st.integers(1, 19), st.integers(1, den)), min_size=3, max_size=12)
    )
)
def test_table_bound_covers_the_table_steps(pairs):
    # the CLI's budget rests on this: the bound never undercounts the loop.
    # _scaled_lengths refuses a triangle violation, where the loop takes no step
    lengths = sorted(Fraction(v, d) for v, d in pairs)
    assume(2 * lengths[-1] <= sum(lengths))
    _, ints = linkage._scaled_lengths(lengths)
    assert linkage._table_bound(ints, 10**9) >= _table_steps(ints)


def test_named_volumes():
    assert moduli_volume_theorem(TORUS) == NormalizedVolume(Fraction(28), 4)
    assert moduli_volume_theorem(PENTAGON) == NormalizedVolume(Fraction(-80), 4)
    assert moduli_volume_theorem(SPHERE) == NormalizedVolume(Fraction(64), 4)
    for spec, text in ((TORUS, "14"), (PENTAGON, "-40"), (SPHERE, "32")):
        vol = moduli_volume_theorem(spec)
        assert approx_string(vol.coeff, vol.radicand) == text


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)), min_size=4, max_size=13))
def test_volume_routes_agree(pairs):
    # the forest route reads the brute pass's top level by free-tree size,
    # the theorem is a closed sum over the same profile
    for spec in (TORUS, PENTAGON, SPHERE):
        assert moduli_volume_forests(spec) == moduli_volume_theorem(spec)
    try:
        spec = validate(sorted(Fraction(v, d) for v, d in pairs))
    except LinkageError:
        return
    assert moduli_volume_forests(spec) == moduli_volume_theorem(spec)


def test_volume_forests_bound():
    # n = 16, the last brute pass, is answered; n = 17 is refused, with the
    # message the CLI prints
    spec = validate((1,) * 17)
    assert moduli_volume_forests(spec) == moduli_volume_theorem(spec)
    with pytest.raises(ValueError, match=r"^n=17 exceeds bound=16; use moduli_volume_theorem$"):
        moduli_volume_forests(validate((1,) * 17 + (2,)))


def test_betti_numbers():
    assert betti_vector(TORUS) == (1, 2, 1)
    assert betti_vector(PENTAGON) == (1, 8, 1)
    assert betti_vector(SPHERE) == (1, 0, 1)


def test_betti_symmetry():
    rng = random.Random(11)
    for bars in (4, 5, 6):
        for _ in range(3):
            spec = _random_linkage(rng, bars)
            b = betti_vector(spec)
            assert b == b[::-1]


def test_f_vectors():
    assert f_vector(TORUS) == (24, 42, 18)
    assert f_vector(PENTAGON) == (24, 60, 30)
    assert f_vector(SPHERE) == (24, 36, 14)


def test_euler_characteristic_consistency():
    for spec, chi in ((TORUS, 0), (PENTAGON, -6), (SPHERE, 2)):
        assert euler_characteristic(spec) == chi
        b = betti_vector(spec)
        assert sum((-1) ** k * x for k, x in enumerate(b)) == chi
    rng = random.Random(77)
    for bars in (4, 5):
        for _ in range(4):
            spec = _random_linkage(rng, bars)
            b = betti_vector(spec)
            assert euler_characteristic(spec) == sum((-1) ** k * x for k, x in enumerate(b))


def test_euler_characteristic_reads_the_stored_f_vector(monkeypatch):
    # f_vector keeps its answer on the spec: after one call, chi needs
    # neither the Stirling rows nor a factorial
    specs = [(validate(spec.lengths), chi) for spec, chi in ((TORUS, 0), (PENTAGON, -6), (SPHERE, 2))]
    for spec, _ in specs:
        f_vector(spec)
    monkeypatch.setattr(linkage, "_stirling_rows", _recomputed)
    monkeypatch.setattr(linkage, "math", _NoMath())
    for spec, chi in specs:
        assert euler_characteristic(spec) == chi


def test_enumerate_cells_counts_match_f_vector():
    for spec in (TORUS, PENTAGON, SPHERE):
        n = spec.n
        counts = [0] * (n - 1)
        for cell in enumerate_cells(spec):
            k = spec.bar_count - cell.block_count
            counts[k] += 1
            assert spec.bar_count in cell.blocks[-1]
            assert all(is_short(spec, b) for b in cell.blocks)
        assert tuple(counts) == f_vector(spec)


def test_enumerate_cells_distinct_and_ordered():
    cells = list(enumerate_cells(TORUS))
    labels = [str(c) for c in cells]
    assert len(labels) == len(set(labels))
    dims = [TORUS.bar_count - c.block_count for c in cells]
    assert dims == sorted(dims)


def test_cyclic_partition_canonical_rotation():
    p = CyclicPartition([(4, 5), (1,), (2,), (3,)])
    assert p.blocks[-1] == frozenset({4, 5})
    assert str(p) == "({1}{2}{3}{4,5})"
    q = CyclicPartition([(1,), (2,), (3,), (4, 5)])
    assert p == q
    with pytest.raises(ValueError):
        CyclicPartition([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        CyclicPartition([(1,), ()])


def test_is_refinement():
    p = CyclicPartition([(1,), (2,), (3,), (4, 5)])
    q = CyclicPartition([(1, 2), (3,), (4, 5)])
    assert is_refinement(p, q)
    assert is_refinement(p, p)
    # same blocks, incompatible cyclic order
    r = CyclicPartition([(1,), (3,), (2,), (4, 5)])
    assert not is_refinement(r, q)
    # blocks straddling
    s = CyclicPartition([(1, 3), (2,), (4, 5)])
    assert not is_refinement(s, q)
    with pytest.raises(ValueError):
        is_refinement(p, CyclicPartition([(1, 2), (3, 4)]))


def test_cell_incidences_via_refinement():
    # faces of one higher dimension are exactly the admissible consecutive
    # merges; count incidences from both sides
    for spec in (validate((1, 1, 1, 2)), TORUS):
        cells = list(enumerate_cells(spec))
        by_dim: dict[int, list[CyclicPartition]] = {}
        for c in cells:
            by_dim.setdefault(spec.bar_count - c.block_count, []).append(c)
        for k in range(len(f_vector(spec)) - 1):
            lower = by_dim.get(k, [])
            upper = by_dim.get(k + 1, [])
            pairs = sum(1 for c in lower for d in upper if is_refinement(c, d))
            merges = 0
            for c in lower:
                m = c.block_count
                for i in range(m):
                    merged = c.blocks[i] | c.blocks[(i + 1) % m]
                    if is_short(spec, merged):
                        merges += 1
            assert pairs == merges


def test_equilateral_comparison():
    cmp2 = equilateral_volume(2)
    assert cmp2.binomial_display == NormalizedVolume(Fraction(16), 4)  # value 8
    assert cmp2.theorem == NormalizedVolume(Fraction(-80), 4)  # value -40
    assert cmp2.forest == cmp2.theorem
    assert not cmp2.agree
    cmp3 = equilateral_volume(3)
    assert cmp3.forest == cmp3.theorem
    assert not cmp3.agree
    cmp4 = equilateral_volume(4)
    assert cmp4.forest == cmp4.theorem
    assert equilateral_volume(9).forest is None  # n = 18 is past BRUTE_MAX
    with pytest.raises(ValueError):
        equilateral_volume(1)
