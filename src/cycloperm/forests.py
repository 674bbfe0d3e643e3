"""Labeled trees and forests on [n]: enumeration, counting, decorations.

Everything here is exact integer/rational combinatorics; enumeration orders
are deterministic so downstream output is reproducible.  Every route imports
this module, so the immutable-value base of the result types and
NormalizedVolume (the exact c / sqrt(n) of every volume route) live here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]


class _Value:
    """Immutable value with dataclass-style equality, hash and repr over the
    slots named in _fields (a subclass sets __slots__ and _fields).  The
    default constructor stores its arguments in slot order; validating
    constructors store through _set.  Pickle and copy rebuild through the
    constructor, called with the fields in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values, got {len(values)}")
        self._set(*values)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, *values):
        """An instance holding `values` in slot order, not validated."""
        self = object.__new__(cls)
        self._set(*values)
        return self

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class NormalizedVolume(_Value):
    """Exact value coeff / sqrt(radicand)."""

    __slots__ = _fields = ("coeff", "radicand")

    def __init__(self, coeff: int | Fraction, radicand: int):
        if radicand < 1:
            raise ValueError("radicand must be a positive integer")
        self._set(Fraction(coeff), radicand)

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        return f"{self.coeff}/sqrt({self.radicand})"


def _normalize_edges(n: int, edges: Iterable[Iterable[int]]) -> tuple[Edge, ...]:
    seen = set()
    for e in edges:
        i, j = e
        if i == j:
            raise ValueError(f"invalid edge ({i},{j}): endpoints must differ")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) outside vertex range 1..{n}")
        seen.add((min(i, j), max(i, j)))
    return tuple(sorted(seen))


def components_of(vertices: Iterable[int], edges: Iterable[Edge]) -> tuple[frozenset[int], ...]:
    """Connected components of an acyclic graph, sorted by least vertex
    (path-compressed union-find); raises on a cycle."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            raise ValueError(f"edges contain a cycle through ({i},{j})")
        parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, set[int]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return tuple(frozenset(groups[r]) for r in sorted(groups))


class LabeledForest(_Value):
    """Acyclic graph on vertices 1..vertex_count with canonically sorted edges."""

    __slots__ = ("vertex_count", "edges", "_components")
    _fields = __slots__[:2]

    def __init__(self, vertex_count: int, edges: Iterable[Iterable[int]] = ()):
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        normalized = _normalize_edges(vertex_count, edges)
        components = components_of(range(1, vertex_count + 1), normalized)  # raises on a cycle
        self._set(vertex_count, normalized, components)

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, sorted by least vertex (computed once, at
        construction)."""
        return self._components

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class PartialDecoratedForest(_Value):
    """Forest plus marks with |edges| + |marks| <= n - 1 and at most one mark
    per component.  A forest on [n] has n - |edges| components, and
    |marks| <= n - 1 - |edges| is fewer, so at least one component is
    unmarked (free)."""

    __slots__ = _fields = ("forest", "marked")

    def __init__(self, forest: LabeledForest, marked: Iterable[int] = ()):
        marked = frozenset(marked)
        n = forest.vertex_count
        if not all(1 <= v <= n for v in marked):
            raise ValueError("marked vertices outside 1..n")
        if any(len(comp & marked) > 1 for comp in forest.components()):
            raise ValueError("a component carries more than one mark")
        if forest.edge_count + len(marked) > n - 1:
            raise ValueError("need |edges| + |marks| <= n - 1")
        self._set(forest, marked)

    @property
    def mark_count(self) -> int:
        return len(self.marked)

    def free_components(self) -> tuple[frozenset[int], ...]:
        return tuple(c for c in self.forest.components() if not (c & self.marked))


class DecoratedForest(_Value):
    """Partial decorated forest with |edges| + |marks| = n - 1.  Its
    n - |edges| = |marks| + 1 components carry at most one mark each, so
    exactly one component (the free tree) is unmarked."""

    __slots__ = _fields = ("forest", "marked")

    def __init__(self, forest: LabeledForest, marked: Iterable[int] = ()):
        marked = PartialDecoratedForest(forest, marked).marked
        if forest.edge_count + len(marked) != forest.vertex_count - 1:
            raise ValueError("need |edges| + |marks| = n - 1")
        self._set(forest, marked)

    @property
    def mark_count(self) -> int:
        return len(self.marked)

    @property
    def free_tree_vertices(self) -> frozenset[int]:
        return next(c for c in self.forest.components() if not (c & self.marked))

    @property
    def free_tree_size(self) -> int:
        return len(self.free_tree_vertices)


def prufer_decode(labels: Sequence[int], seq: Sequence[int]) -> tuple[Edge, ...]:
    """Edges of the tree on `labels` encoded by a Pruefer sequence of length
    len(labels) - 2.  Single vertex decodes to the empty edge set."""
    labels = tuple(sorted(labels))
    v = len(labels)
    if v == 1:
        if seq:
            raise ValueError("sequence must be empty for a single vertex")
        return ()
    if len(seq) != v - 2:
        raise ValueError("sequence length must be len(labels) - 2")
    if not set(seq) <= set(labels):
        raise ValueError("sequence entries must be labels")
    degree = {u: 1 for u in labels}
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(u for u in labels if degree[u] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    u, w = sorted(u for u in labels if degree[u] == 1)
    edges.append((u, w))
    return tuple(sorted(edges))


def trees_on(labels: Sequence[int]) -> Iterator[tuple[Edge, ...]]:
    """All spanning trees on an arbitrary label set, as sorted edge tuples,
    in Pruefer-lexicographic order."""
    labels = tuple(sorted(labels))
    v = len(labels)
    if v == 0:
        raise ValueError("empty vertex set")
    if v <= 2:
        yield () if v == 1 else ((labels[0], labels[1]),)
        return
    for seq in product(labels, repeat=v - 2):
        yield prufer_decode(labels, seq)


def enumerate_trees(vertex_count: int) -> Iterator[LabeledForest]:
    """All labeled trees on 1..vertex_count (Cayley: vertex_count^(vertex_count-2))."""
    if vertex_count < 1:
        raise ValueError("vertex_count must be positive")
    whole = (frozenset(range(1, vertex_count + 1)),)
    for edges in trees_on(range(1, vertex_count + 1)):
        yield _forest_of(vertex_count, whole, (edges,))


def _forest_of(n: int, components: tuple[frozenset[int], ...], trees: Iterable) -> LabeledForest:
    """The forest on [n] made of one spanning tree per component, the
    components being the blocks of a set partition of [n] in order of least
    vertex.  The enumerators build from their own blocks, so nothing is
    re-validated."""
    return LabeledForest._unchecked(n, tuple(sorted(chain.from_iterable(trees))), components)


def set_partitions(items: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions in lexicographic restricted-growth-string order; blocks
    are ordered by first occurrence and each block keeps the input order.
    The last item joins each block of a partition of the others in turn,
    then opens a block of its own."""
    items = tuple(items)
    if not items:
        yield ()
        return
    last = items[-1]
    for blocks in set_partitions(items[:-1]):
        for j in range(len(blocks)):
            yield blocks[:j] + (blocks[j] + (last,),) + blocks[j + 1:]
        yield blocks + ((last,),)


# d -> [F_d(0), F_d(1), ...]; each list is replaced whole, never mutated.
_DIVISIBLE_TABLES: dict[int, list[int]] = {}


def _forests_divisible(d: int, n: int) -> list[int]:
    """F_d(0..m) for some m >= n, where F_d(m) counts the labeled forests on
    [m] whose tree sizes are all multiples of d.  By the exponential
    formula, splitting off the tree of vertex m:
    F_d(m) = sum_{k in d, 2d, ... <= m} C(m-1, k-1) k^(k-2) F_d(m-k),
    with F_d(0) = 1 and F_d(m) = 0 unless d divides m.  Sizes 1 and 2 both
    admit exactly one tree."""
    table = _DIVISIBLE_TABLES.get(d, [1])
    if len(table) > n:
        return table
    start = len(table)
    table = table + [0] * (n + 1 - start)
    comb = math.comb
    trees = {k: k ** (k - 2) if k > 2 else 1 for k in range(d, n + 1, d)}  # k^(k-2) trees on [k]
    for m in range(start + -start % d, n + 1, d):  # the new multiples of d
        table[m] = sum([comb(m - 1, k - 1) * trees[k] * table[m - k] for k in range(d, m + 1, d)])
    _DIVISIBLE_TABLES[d] = table  # publish only the finished list
    return table


def _totient(d: int) -> int:
    """Euler's totient by trial division: d times (1 - 1/p) for each prime
    p dividing d."""
    result = rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


# v -> Phi(v), kept for the life of the process like the F_d tables: each
# entry is computed once, from the tables of the divisors of v only (a sieve
# over every v would build a table for every d <= v).
_GCD_SUMS: dict[int, int] = {}


def forest_count(n: int) -> int:
    """Number of labeled forests on [n] (OEIS A001858), from the
    exponential-formula table F_1.  forest_count(0) = 1 (the empty
    forest)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    table = _DIVISIBLE_TABLES.get(1, ())
    if len(table) <= n:
        table = _forests_divisible(1, n)
    return table[n]


def forest_gcd_sum(v: int) -> int:
    """Sum over labeled forests on [v] of gcd(component sizes):
    sum_{d | v} totient(d) F_d(v), because gcd = sum_{d | gcd} totient(d)."""
    if v < 1:
        raise ValueError("v must be positive")
    total = _GCD_SUMS.get(v)
    if total is None:
        total = _GCD_SUMS[v] = sum(
            _totient(d) * _forests_divisible(d, v)[v] for d in range(1, v + 1) if v % d == 0
        )
    return total


def abel_eval(n: int, a: int | Fraction, x: int | Fraction) -> Fraction:
    """Abel polynomial A_{n,a}(x) = x (x - a n)^(n-1), with A_0 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = Fraction(x)
    return Fraction(1) if n == 0 else _abel(n, Fraction(a), x)


def _abel(n: int, a, x):
    """A_{n,a}(x) in the number type of a and x (n >= 0)."""
    return 1 if n == 0 else x * (x - a * n) ** (n - 1)


def enumerate_decorated_forests(n: int) -> Iterator[DecoratedForest]:
    """All decorated forests on [n].

    Order: component partitions in restricted-growth lex order; within a
    partition, the free block by position, then root choices for the marked
    blocks in ascending vertex order, then per-block spanning trees in
    Pruefer-lex order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for blocks in set_partitions(range(1, n + 1)):
        components = tuple(map(frozenset, blocks))
        forests = [_forest_of(n, components, combo) for combo in product(*map(trees_on, blocks))]
        for free_idx in range(len(blocks)):
            root_spaces = [b for j, b in enumerate(blocks) if j != free_idx]
            for roots in product(*root_spaces):
                marked = frozenset(roots)
                for forest in forests:
                    yield DecoratedForest._unchecked(forest, marked)


def enumerate_partial_decorated_forests(n: int) -> Iterator[PartialDecoratedForest]:
    """All partial decorated forests on [n] (|edges| + |marks| <= n - 1).

    Order: component partitions in restricted-growth lex order; within a
    partition, per-block spanning trees in Pruefer-lex order, then marked
    block subsets by size then lex (never all blocks), then root choices in
    ascending vertex order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for blocks in set_partitions(range(1, n + 1)):
        c = len(blocks)
        components = tuple(map(frozenset, blocks))
        for combo in product(*map(trees_on, blocks)):
            forest = _forest_of(n, components, combo)
            for size in range(c):
                for marked_blocks in combinations(range(c), size):
                    for roots in product(*(blocks[j] for j in marked_blocks)):
                        yield PartialDecoratedForest._unchecked(forest, frozenset(roots))

