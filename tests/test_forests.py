from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloperm import forests, linkage, zonotope
from cycloperm.forests import NormalizedVolume, abel_eval, forest_count, forest_gcd_sum, set_partitions
from cycloperm.oracle import (
    components_of,
    forest_selections,
    forest_sums_by_partitions,
    free_components,
    prufer_decode,
    trees_on,
)
from tests.conftest import _PROCESS_TABLES
from tests.test_zonotope import _parent_closed_forms

# --- independent brute-force oracle (DFS cycle check, no shared code) ---


def _has_cycle(n: int, edges) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen: set[int] = set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        stack = [(start, 0)]
        seen.add(start)
        while stack:
            v, parent = stack.pop()
            for w in adj[v]:
                if w == parent:
                    parent = 0  # consume one edge back to parent (simple graphs)
                    continue
                if w in seen:
                    return True
                seen.add(w)
                stack.append((w, v))
    return False


def _brute_forests(n: int) -> list[tuple[tuple[int, int], ...]]:
    all_edges = list(combinations(range(1, n + 1), 2))
    out = []
    for r in range(len(all_edges) + 1):
        for sub in combinations(all_edges, r):
            if not _has_cycle(n, sub):
                out.append(sub)
    return out


def _brute_components(n: int, edges) -> list[set[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen: set[int] = set()
    comps = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _brute_decorated(n: int) -> set[tuple[tuple[tuple[int, int], ...], frozenset[int]]]:
    """(edges, marks) pairs satisfying the decorated-forest conditions."""
    out = set()
    for edges in _brute_forests(n):
        comps = _brute_components(n, edges)
        for m_size in range(n):
            if len(edges) + m_size != n - 1:
                continue
            for marks in combinations(range(1, n + 1), m_size):
                marked = frozenset(marks)
                per_comp = [len(c & marked) for c in comps]
                if all(x <= 1 for x in per_comp) and per_comp.count(0) == 1:
                    out.add((edges, marked))
    return out


def _brute_partial(n: int) -> set[tuple[tuple[tuple[int, int], ...], frozenset[int]]]:
    out = set()
    for edges in _brute_forests(n):
        comps = _brute_components(n, edges)
        for m_size in range(n):
            if len(edges) + m_size > n - 1:
                continue
            for marks in combinations(range(1, n + 1), m_size):
                marked = frozenset(marks)
                if all(len(c & marked) <= 1 for c in comps):
                    out.add((edges, marked))
    return out


# --- partitions ---


def test_set_partitions_order_and_counts():
    got = list(set_partitions([1, 2, 3]))
    assert got == [
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    ]
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n, b in enumerate(bell):
        want = _partitions_by_growth_strings(range(1, n + 1))
        assert len(want) == b
        assert list(set_partitions(range(1, n + 1))) == want
    assert list(set_partitions([5, 2, 9, 1])) == _partitions_by_growth_strings([5, 2, 9, 1])


def _partitions_by_growth_strings(items):
    # the restricted growth strings c (c_0 = 0, c_i <= 1 + max(c_0..c_{i-1}))
    # among all strings over 0..n-1 in lexicographic order; item i goes to
    # block c_i, and a string is dropped at its first code too high
    items = list(items)
    out = []
    for codes in sorted(product(range(len(items)), repeat=len(items))):
        blocks = []
        for x, c in zip(items, codes):
            if c > len(blocks):
                break
            if c == len(blocks):
                blocks.append([])
            blocks[c].append(x)
        else:
            out.append(tuple(map(tuple, blocks)))
    return out


# --- trees and Pruefer codes ---


def test_enumerate_trees_cayley():
    for n in range(1, 7):
        trees = list(trees_on(range(1, n + 1)))
        assert len(trees) == (n ** (n - 2) if n >= 2 else 1)
        assert len(set(trees)) == len(trees)
        for edges in trees:
            assert components_of(range(1, n + 1), edges) == (frozenset(range(1, n + 1)),)
    with pytest.raises(ValueError):
        list(trees_on(()))


def test_trees_match_bruteforce():
    for n in range(1, 6):
        brute = {sub for sub in _brute_forests(n) if len(sub) == n - 1}
        assert set(trees_on(range(1, n + 1))) == brute


def test_prufer_examples():
    assert prufer_decode((1, 2, 3, 4), (2, 2)) == ((1, 2), (2, 3), (2, 4))
    assert prufer_decode((1, 2), ()) == ((1, 2),)
    assert prufer_decode((7,), ()) == ()
    with pytest.raises(ValueError):
        prufer_decode((1, 2, 3), (5,))


def test_prufer_roundtrip():
    # the labels^(v-2) sequences decode to as many distinct spanning trees,
    # so decoding is a bijection onto the trees (Cayley)
    for labels in [tuple(range(1, n + 1)) for n in range(3, 7)] + [(2, 5, 9, 11)]:
        trees = [prufer_decode(labels, seq) for seq in product(labels, repeat=len(labels) - 2)]
        assert len(set(trees)) == len(trees) == len(labels) ** (len(labels) - 2)
        assert all(components_of(labels, edges) == (frozenset(labels),) for edges in trees)
        assert list(trees_on(labels)) == trees


# --- labeled forests: plain edge tuples ---


def test_labeled_forest_validation():
    # components_of accepts exactly the acyclic edge sets, in any edge order
    assert components_of(range(1, 4), [(2, 1)]) == (frozenset({1, 2}), frozenset({3}))
    assert components_of(range(1, 4), []) == (frozenset({1}), frozenset({2}), frozenset({3}))
    with pytest.raises(ValueError, match="cycle"):
        components_of(range(1, 4), [(1, 2), (2, 3), (1, 3)])
    assert free_components(3, ((1, 2), (1, 3), (2, 3)), ()) is None


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1]), max_size=9),
        )
    )
)
def test_components_of_matches_bruteforce(case):
    # the DFS components, or a cycle error exactly when DFS finds a cycle
    n, edges = case
    normalized = tuple(sorted({(min(e), max(e)) for e in edges}))
    if _has_cycle(n, normalized):
        with pytest.raises(ValueError, match="cycle"):
            components_of(range(1, n + 1), normalized)
        assert free_components(n, normalized, ()) is None
        return
    expected = components_of(range(1, n + 1), normalized)
    assert list(map(set, expected)) == _brute_components(n, normalized)
    assert free_components(n, normalized, ()) == expected


def test_forest_count_known_values():
    assert [forest_count(n) for n in range(0, 6)] == [1, 1, 2, 7, 38, 291]


def test_forest_count_matches_bruteforce():
    for n in range(1, 7):
        assert forest_count(n) == len(_brute_forests(n))


def test_forest_gcd_sum_known_values():
    assert [forest_gcd_sum(v) for v in range(1, 5)] == [1, 3, 13, 89]
    with pytest.raises(ValueError):
        forest_gcd_sum(0)


def test_forest_gcd_sum_matches_bruteforce():
    for v in range(1, 6):
        brute = 0
        for edges in _brute_forests(v):
            sizes = [len(c) for c in _brute_components(v, edges)]
            brute += math.gcd(*sizes)
        assert forest_gcd_sum(v) == brute


def test_totient_matches_the_gcd_count():
    for d in range(1, 2001):
        assert forests._totient(d) == sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


_TABLE_VOLUMES, _TABLE_LATTICE = _parent_closed_forms(20)
_TABLED_ROUTES = (  # (route, least n, largest n, expected value at n)
    (forest_count, 1, 20, lambda n: forest_sums_by_partitions(n)[0]),
    (forest_gcd_sum, 1, 20, lambda n: forest_sums_by_partitions(n)[1]),
    (zonotope.lattice_count_closed_form, 2, 20, _TABLE_LATTICE.__getitem__),
    (zonotope.volume_by_forests, 2, 20, lambda n: NormalizedVolume(_TABLE_VOLUMES[n], n)),
    (zonotope.volume_bruteforce, 2, 6, zonotope.volume_closed_form),
    (zonotope.lattice_count_bruteforce, 2, 6, _TABLE_LATTICE.__getitem__),
)


@given(st.lists(st.tuples(st.sampled_from(_TABLED_ROUTES), st.integers(1, 20)), min_size=1, max_size=8))
def test_forest_table_state_cannot_change_an_answer(calls):
    # each example builds the per-process tables from empty, calling the
    # routes that read them in its own order
    tables = (
        forests._DIVISIBLE_TABLES, forests._GCD_SUMS,
        zonotope._LATTICE_COUNTS, zonotope._FOREST_VOLUMES, zonotope._BRUTE_SUMS,
    )
    with contextlib.ExitStack() as stack:
        for table in tables:
            stack.enter_context(mock.patch.dict(table, clear=True))
        for (route, least, largest, expected), n in calls:
            if least <= n <= largest:
                assert route(n) == expected(n)


def test_every_module_table_is_emptied_for_each_test():
    # a module-level container is a per-process table: unless the autouse
    # fixture empties it, an answer stored by one test reaches the next
    tables = {
        (module, name)
        for module in (forests, zonotope, linkage)
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }
    assert tables == {(module, name) for module, name, _ in _PROCESS_TABLES}


# --- rooted forest counts and Abel polynomials ---


def _rooted_forest_table(n: int) -> dict[int, int]:
    # t_{n,k} = C(n-1, k-1) n^(n-k) rooted forests on [n] with k trees
    if n == 0:
        return {0: 1}  # the empty forest has no trees
    return {k: math.comb(n - 1, k - 1) * n ** (n - k) for k in range(1, n + 1)}


def test_rooted_forest_counts_match_bruteforce():
    for n in range(1, 6):
        table: dict[int, int] = {}
        for edges in _brute_forests(n):
            comps = _brute_components(n, edges)
            k = len(comps)
            rooted = 1
            for c in comps:
                rooted *= len(c)
            table[k] = table.get(k, 0) + rooted
        assert _rooted_forest_table(n) == table


def test_rooted_forest_polynomial_identity():
    # sum_k t_{n,k} x^k = x (x + n)^(n-1)
    for n in range(0, 9):
        tbl = _rooted_forest_table(n)
        for x in (-n, -3, -1, 0, 1, 2, Fraction(1, 2)):
            assert sum(t * x ** k for k, t in tbl.items()) == abel_eval(n, -1, x)


def test_abel_eval_basics():
    assert abel_eval(0, 5, 3) == 1
    assert abel_eval(1, 5, 3) == 3
    assert abel_eval(3, 1, 2) == 2 * (2 - 3) ** 2
    assert abel_eval(2, Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 3) * (Fraction(1, 3) - 1)
    with pytest.raises(ValueError):
        abel_eval(-1, 1, 1)


_NUMBERS = st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=50),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.integers(0, 12), _NUMBERS, _NUMBERS)
def test_abel_eval_is_exact_in_every_number_type(n, a, x):
    # floats count at their exact binary value, as Fraction(float) gives it
    expected = 1 if n == 0 else Fraction(x) * (Fraction(x) - Fraction(a) * n) ** (n - 1)
    value = abel_eval(n, a, x)
    assert type(value) is Fraction and value == expected


def test_abel_grouped_sum_identity():
    # sum_N C(n,N) N^(N-1) A_{n-N,-1}(-n) = (-1)^n n sum_N (-1)^N C(n,N) N^(n-2)
    for n in range(2, 11):
        lhs = sum(
            math.comb(n, N) * N ** (N - 1) * abel_eval(n - N, -1, -n)
            for N in range(1, n + 1)
        )
        rhs = (-1) ** n * n * sum(
            (-1) ** N * math.comb(n, N) * N ** (n - 2) for N in range(1, n + 1)
        )
        assert lhs == rhs
        if n >= 3:
            # alternating vanishing: p(-1) = 0 for p(x) = sum N^(n-2) C(n,N) x^N
            assert rhs == 0
        else:
            assert rhs == -2


# --- decorated forests: the selections the predicate accepts ---


def test_decorated_forest_validation():
    assert free_components(3, ((1, 2),), (3,)) == (frozenset({1, 2}),)  # the free tree is {1, 2}
    assert free_components(3, ((1, 2),), (1, 2)) is None  # two marks in one tree
    assert free_components(3, ((1, 2), (1, 3), (2, 3)), ()) is None  # a cycle
    assert free_components(3, ((1, 2), (2, 3)), (1,)) == ()  # n generators: no tree is free
    assert (((1, 2),), (3,)) in set(forest_selections(3, (2,)))
    assert (((1, 2),), ()) not in set(forest_selections(3, (2,)))  # |edges| + |marks| != n - 1


def test_partial_decorated_forest_validation():
    assert free_components(3, (), (1, 2)) == (frozenset({3}),)
    assert free_components(3, (), (1, 2, 3)) == ()  # every tree marked: n generators
    assert ((), (1, 2, 3)) not in set(forest_selections(3, range(3)))  # cap |edges| + |marks| <= n - 1
    assert free_components(3, ((1, 2),), (1, 2)) is None


def test_enumerate_decorated_forests_counts():
    # choose the free tree on N vertices, a rooted forest on the rest:
    # sum_N C(n, N) N^(N-2) (n-N+1)^(n-N-1)
    counts = [sum(1 for _ in forest_selections(n, (n - 1,))) for n in range(1, 7)]
    assert counts == [1, 3, 15, 110, 1080, 13377]
    for n, count in enumerate(counts, 1):
        assert count == sum(
            math.comb(n, N) * N ** max(N - 2, 0) * (n - N + 1) ** max(n - N - 1, 0)
            for N in range(1, n + 1)
        )


def test_enumerate_decorated_forests_matches_bruteforce():
    for n in range(1, 6):
        got = [(edges, frozenset(marks)) for edges, marks in forest_selections(n, (n - 1,))]
        assert len(got) == len(set(got))
        assert set(got) == _brute_decorated(n)


def test_enumerate_partial_decorated_forests_counts():
    counts = [sum(1 for _ in forest_selections(n, range(n))) for n in range(1, 7)]
    assert counts == [1, 4, 22, 166, 1636, 20154]


def test_enumerate_partial_decorated_forests_matches_bruteforce():
    for n in range(1, 6):
        got = [(edges, frozenset(marks)) for edges, marks in forest_selections(n, range(n))]
        assert len(got) == len(set(got))
        assert set(got) == _brute_partial(n)


def test_every_decorated_forest_is_partial():
    # and the free trees are the unmarked components of the DFS reference
    for n in range(1, 5):
        partial = _brute_partial(n)
        for edges, marks in forest_selections(n, (n - 1,)):
            assert (edges, frozenset(marks)) in partial
            free = [c for c in _brute_components(n, edges) if not c & set(marks)]
            assert list(map(set, free_components(n, edges, marks))) == free and len(free) == 1
