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
from cycloperm.forests import (
    DecoratedForest,
    LabeledForest,
    NormalizedVolume,
    PartialDecoratedForest,
    abel_eval,
    components_of,
    enumerate_decorated_forests,
    enumerate_partial_decorated_forests,
    enumerate_trees,
    forest_count,
    forest_gcd_sum,
    prufer_decode,
    set_partitions,
    trees_on,
)
from cycloperm.oracle import forest_sums_by_partitions
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
        trees = list(enumerate_trees(n))
        assert len(trees) == (n ** (n - 2) if n >= 2 else 1)
        assert len(set(t.edges for t in trees)) == len(trees)
        for t in trees:
            assert len(t.components()) == 1
    with pytest.raises(ValueError):
        list(enumerate_trees(0))


def test_trees_match_bruteforce():
    for n in range(1, 6):
        brute = {sub for sub in _brute_forests(n) if len(sub) == n - 1}
        assert {t.edges for t in enumerate_trees(n)} == brute


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


# --- labeled forests ---


def test_labeled_forest_validation():
    f = LabeledForest(3, [(2, 1)])
    assert f.edges == ((1, 2),)
    assert len(f.components()) == 2
    assert components_of(f.vertices, f.edges) == (frozenset({1, 2}), frozenset({3}))
    assert LabeledForest(2, [(1, 2), (2, 1)]).edges == ((1, 2),)  # set semantics
    with pytest.raises(ValueError):
        LabeledForest(3, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledForest(3, [(1, 4)])
    with pytest.raises(ValueError):
        LabeledForest(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError):
        LabeledForest(0)


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1]), max_size=9),
        )
    )
)
def test_stored_components_match_components_of(case):
    # the components kept at construction, or the same cycle error
    n, edges = case
    normalized = tuple(sorted({(min(e), max(e)) for e in edges}))
    try:
        expected = components_of(range(1, n + 1), normalized)
    except ValueError as exc:
        assert _has_cycle(n, normalized)
        with pytest.raises(ValueError) as raised:
            LabeledForest(n, edges)
        assert str(raised.value) == str(exc)
        return
    assert not _has_cycle(n, normalized)
    assert LabeledForest(n, edges).components() == expected
    assert list(map(set, expected)) == _brute_components(n, normalized)


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


# --- decorated forests ---


def test_decorated_forest_validation():
    f = LabeledForest(3, [(1, 2)])
    d = DecoratedForest(f, [3])
    assert d.free_tree_vertices == frozenset({1, 2})
    assert d.free_tree_size == 2
    assert d.mark_count == 1
    with pytest.raises(ValueError):
        DecoratedForest(f, [1, 2])  # two marks in one component
    with pytest.raises(ValueError):
        DecoratedForest(f, [])  # |edges| + |marks| != n - 1
    with pytest.raises(ValueError):
        DecoratedForest(f, [4])
    with pytest.raises(ValueError):
        DecoratedForest(LabeledForest(3, [(1, 2), (2, 3)]), [1])  # no free component


def test_partial_decorated_forest_validation():
    f = LabeledForest(3, [])
    p = PartialDecoratedForest(f, [1, 2])
    assert p.free_components() == (frozenset({3}),)
    assert tuple(c for c in f.components() if c & p.marked) == (frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError):
        PartialDecoratedForest(f, [1, 2, 3])  # cap |edges| + |marks| <= n - 1
    with pytest.raises(ValueError):
        PartialDecoratedForest(LabeledForest(3, [(1, 2)]), [1, 2])


def test_enumerate_decorated_forests_counts():
    assert len(list(enumerate_decorated_forests(1))) == 1
    assert len(list(enumerate_decorated_forests(2))) == 3
    assert len(list(enumerate_decorated_forests(3))) == 15
    # count formula: choose the free tree, rooted forest on the rest
    for n in range(1, 6):
        expected = sum(
            math.comb(n, N) * N ** max(N - 2, 0) * (n - N + 1) ** max(n - N - 1, 0)
            for N in range(1, n + 1)
        )
        assert len(list(enumerate_decorated_forests(n))) == expected


def test_enumerate_decorated_forests_matches_bruteforce():
    for n in range(1, 5):
        got = [(d.forest.edges, d.marked) for d in enumerate_decorated_forests(n)]
        assert len(got) == len(set(got))
        assert set(got) == _brute_decorated(n)


def test_enumerate_partial_decorated_forests_counts():
    assert len(list(enumerate_partial_decorated_forests(1))) == 1
    assert len(list(enumerate_partial_decorated_forests(2))) == 4
    assert len(list(enumerate_partial_decorated_forests(3))) == 22


def test_enumerate_partial_decorated_forests_matches_bruteforce():
    for n in range(1, 5):
        got = [(p.forest.edges, p.marked) for p in enumerate_partial_decorated_forests(n)]
        assert len(got) == len(set(got))
        assert set(got) == _brute_partial(n)


def test_every_decorated_forest_is_partial():
    for n in range(1, 5):
        partial = _brute_partial(n)
        for d in enumerate_decorated_forests(n):
            assert (d.forest.edges, d.marked) in partial


def _validated_decorated(n: int):
    """enumerate_decorated_forests(n) in the same order, every object built
    through the validating constructors."""
    for blocks in set_partitions(range(1, n + 1)):
        for free_idx in range(len(blocks)):
            for roots in product(*(b for j, b in enumerate(blocks) if j != free_idx)):
                for combo in product(*map(trees_on, blocks)):
                    yield DecoratedForest(LabeledForest(n, [e for tree in combo for e in tree]), roots)


def _validated_partial(n: int):
    """enumerate_partial_decorated_forests(n) in the same order, through the
    validating constructors."""
    for blocks in set_partitions(range(1, n + 1)):
        for combo in product(*map(trees_on, blocks)):
            forest = LabeledForest(n, [e for tree in combo for e in tree])
            for size in range(len(blocks)):
                for marked_blocks in combinations(blocks, size):
                    for roots in product(*marked_blocks):
                        yield PartialDecoratedForest(forest, roots)


def test_enumerators_build_what_the_constructors_validate():
    counts = []
    for n in range(1, 7):
        got, want = list(enumerate_decorated_forests(n)), list(_validated_decorated(n))
        counts.append(len(got))
        assert got == want
        assert [d.forest.components() for d in got] == [d.forest.components() for d in want]
        assert [d.free_tree_vertices for d in got] == [d.free_tree_vertices for d in want]
    assert counts == [1, 3, 15, 110, 1080, 13377]
    for n in range(1, 6):
        got, want = list(enumerate_partial_decorated_forests(n)), list(_validated_partial(n))
        assert got == want
        assert [p.forest.components() for p in got] == [p.forest.components() for p in want]
        assert [p.free_components() for p in got] == [p.free_components() for p in want]
    for n in range(1, 7):
        trees = list(enumerate_trees(n))
        assert trees == [LabeledForest(n, t.edges) for t in trees]
        assert all(t.components() == (frozenset(range(1, n + 1)),) for t in trees)

