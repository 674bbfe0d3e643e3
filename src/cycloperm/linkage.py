"""Configuration spaces of planar polygonal linkages.

A linkage is a list of bar lengths l_1..l_{n+1} with the longest bar last.
Its configuration space M(L) (closed polygons up to isometry) is modeled by
the complex of cyclically ordered partitions of the bars into short blocks;
volumes, Betti numbers, and face counts all reduce to the short-set profile
a_k = #{k-subsets S of [n] with S + {n+1} short}.

One table per linkage, built at validation: the (size, sum) table over the
first n bars, scaled to integers over their common denominator, up to half
of room = sum(first n) - last.  It gives the wall check and the profile,
which the spec keeps.  The kernel is chosen from n and room before any
work: packed int rows, one per size with an (n + 1)-bit count per sum, when
a row fits _PACKED_ROW_BITS (dense sums, a shift and a mask per step), else
a dict per size with one entry per distinct sum (wide sums: long runs of
equal bars, pairwise-coprime denominators).  The Betti numbers and the volume read the profile,
and so does the f-vector: a set of bars is short iff its complement is
long, and a partition of the bars has at most one long block, so the
f-vector follows from the profile and Stirling numbers.  The set-partition
enumeration stays as the cell enumerator.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate, permutations
from typing import Iterable, Iterator, Sequence

from .forests import NormalizedVolume, _Value, set_partitions


class LinkageError(ValueError):
    """Base for linkage validation failures."""


class NonPositiveLengthError(LinkageError):
    pass


class LongestNotLastError(LinkageError):
    pass


class WallHitError(LinkageError):
    """Some signed sum of the lengths vanishes: the linkage is non-generic."""


class TriangleViolationError(LinkageError):
    """Some bar is at least as long as all the others combined."""


def _as_fraction(x) -> Fraction:
    """Fraction(x), with a decimal float read from its shortest repr.  A
    Fraction and an ASCII digit string p or p/q skip the parse; any other
    string (signs, spaces, decimals, non-ASCII digits) goes to Fraction."""
    if type(x) is Fraction:
        return x
    if type(x) is str:
        p, slash, q = x.partition("/")
        if p.isascii() and p.isdigit() and (q.isascii() and q.isdigit() or not slash):
            return Fraction(int(p), int(q) if slash else 1)
    elif isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _scaled_lengths(lengths: Iterable) -> tuple[tuple[Fraction, ...], list[int]]:
    """The lengths as fractions, and times their common denominator.  Raises
    a LinkageError subclass on an empty list, a non-positive length, a
    longest bar out of place or above half the perimeter (where no subset
    sums to half of it, so no wall precedes), in that order: the O(n)
    checks of validation, which the CLI runs before it bounds the table."""
    lengths = tuple(_as_fraction(x) for x in lengths)
    if not lengths:
        raise LinkageError("need at least one bar")
    scale = math.lcm(*(x.denominator for x in lengths))
    ints = [x.numerator * (scale // x.denominator) for x in lengths]
    if min(ints) <= 0:
        raise NonPositiveLengthError("bar lengths must be positive")
    if max(ints) != ints[-1]:
        raise LongestNotLastError("longest bar must be listed last")
    if 2 * ints[-1] > sum(ints):
        raise TriangleViolationError("longest bar is at least half the perimeter")
    return lengths, ints


def _subset_sums(ints: Sequence[int], room: int) -> list[dict[int, int]]:
    """ways[k][s] = number of k-subsets of `ints` (all positive) with sum s,
    kept only while 2 s <= room, since adding an element never lowers a sum
    (ways[0] is {0: 1} whatever the room).  The largest elements go first:
    sums then pass room / 2 sooner, and mixed lengths take about half the
    steps that ascending order does."""
    half = room // 2
    ways: list[dict[int, int]] = [{0: 1}] + [{} for _ in ints]
    for i, x in enumerate(sorted(ints, reverse=True)):
        limit = half - x
        if limit < 0:
            continue
        # a kept k-sum adds k elements no smaller than x, so k x <= limit
        for k in range(min(i, limit // x), -1, -1):
            grown = ways[k + 1]
            for s, c in ways[k].items():
                if s <= limit:
                    grown[s + x] = grown.get(s + x, 0) + c
    return ways


def _packed_sums(ints: Sequence[int], half: int) -> list[int]:
    """The table of `_subset_sums` packed as one int per size k: field s,
    w = len(ints) + 1 bits wide, counts the k-subsets with sum s <= half.  A
    count is at most C(len(ints), k) < 2^w - 1, so no field carries into the
    next, and the mask drops the sums past half."""
    w = len(ints) + 1
    mask = (1 << w * (half + 1)) - 1
    rows = [1] + [0] * len(ints)
    for i, x in enumerate(sorted(ints, reverse=True)):
        limit = half - x
        if limit < 0:
            continue
        for k in range(min(i, limit // x), -1, -1):
            rows[k + 1] += (rows[k] << w * x) & mask
    return rows


# Widest row, in bits, that `_short_table` packs.  The packed kernel costs
# one pass over a row per (bar, size) step, the dict kernel one step per
# distinct sum; runs of equal bars keep one sum per size, where past this
# width the packed rows are the slower (see CHANGES.md for the grid).
_PACKED_ROW_BITS = 1 << 12


def _short_table(rest: Sequence[int], room: int) -> tuple[bool, tuple[int, ...]]:
    """(wall, profile) of the (size, sum) table over `rest` up to half of
    room: wall when room is even and some subset sums to room / 2, and
    profile[k] the number of k-subsets with 2 sum <= room.  The kernel is
    chosen from n = len(rest) and room alone: packed int rows when a row of
    (n + 1)(room // 2 + 1) bits fits _PACKED_ROW_BITS, else the dict DP."""
    half = room // 2
    w = len(rest) + 1
    if w * (half + 1) <= _PACKED_ROW_BITS:
        rows = _packed_sums(rest, half)
        wall = room % 2 == 0 and any(r >> w * half for r in rows)
        return wall, tuple(r % ((1 << w) - 1) for r in rows)
    ways = _subset_sums(rest, room)
    wall = room % 2 == 0 and any(half in t for t in ways)
    return wall, tuple(sum(t.values()) for t in ways)


def _table_bound(ints: Sequence[int], cap: int) -> int:
    """An upper bound on the steps of the table loop over the first n of
    these scaled lengths (longest last): one per bar i and size k <= i, plus
    one per kept sum of the k-subsets of the i bars taken before it.  Those
    number at most C(i, k), and lie between the sum of the k smallest of
    these i bars and the smaller of the sum of the k largest and room / 2.
    Counting stops once the bound exceeds `cap`."""
    *rest, last = ints
    half = (sum(rest) - last) // 2
    top = list(accumulate(sorted(rest, reverse=True), initial=0))  # top[k]: the k largest
    bound = 0
    row = [1]  # C(i, 0..i), saturated above cap
    for i in range(len(rest)):
        # top[i] - top[i - k]: the k smallest of the i largest bars
        widths = (max(0, min(top[k], half) - top[i] + top[i - k] + 1) for k in range(i + 1))
        bound += sum(1 + min(c, w) for c, w in zip(row, widths))
        if bound > cap:
            break
        row = [1] + [min(a + b, cap + 1) for a, b in zip(row, row[1:])] + [1]
    return bound


class LinkageSpec(_Value):
    """Validated bar lengths; construction raises a LinkageError subclass on
    non-positive lengths, a longest bar out of place, a vanishing signed sum
    (wall), or a violated triangle inequality, in that order.  It builds the
    (size, sum) table once, as packed int rows or as dicts (see
    _short_table), and keeps the short-set profile, and the f-vector once
    f_vector has built it, in slots outside equality, hash and repr; pickle
    and copy rebuild the spec through the constructor."""

    __slots__ = ("lengths", "_profile", "_f_vector")
    _fields = __slots__[:1]

    def __init__(self, lengths: Iterable):
        lengths, ints = _scaled_lengths(lengths)
        *rest, last = ints
        # of a subset summing to half the perimeter and its complement, one
        # holds the last bar, and its other bars sum to room / 2; room >= 0
        # here, and at room = 0 the empty set is such a subset, so a last
        # bar of exactly half the perimeter is a wall
        wall, profile = _short_table(rest, sum(rest) - last)
        if wall:
            raise WallHitError("a subset of bars sums to half the perimeter")
        # no sum is room / 2 now, so every kept S has S + {last} short
        self._set(lengths, profile)

    @property
    def bar_count(self) -> int:
        return len(self.lengths)

    @property
    def n(self) -> int:
        return len(self.lengths) - 1

    @property
    def half_perimeter(self) -> Fraction:
        return sum(self.lengths) / 2


def validate(lengths: Iterable) -> LinkageSpec:
    """Coerce lengths (ints, fractions, strings, decimal floats) and build a
    validated LinkageSpec."""
    return LinkageSpec(lengths)


def is_short(spec: LinkageSpec, subset: Iterable[int]) -> bool:
    """Whether the bars indexed by `subset` (1-based) sum to less than half
    the perimeter."""
    subset = frozenset(subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    if not all(1 <= i <= spec.bar_count for i in subset):
        raise ValueError("subset indices out of range")
    return sum(spec.lengths[i - 1] for i in subset) < spec.half_perimeter


def a_profile(spec: LinkageSpec) -> tuple[int, ...]:
    """a[k] = number of k-subsets S of the first n bars with S + {last bar}
    short, k = 0..n; read off the (size, sum) table at validation: S + {last}
    is short iff 2 sum(S) < sum(first n) - last."""
    return spec._profile


# --- volumes ---


def moduli_volume_theorem(spec: LinkageSpec) -> NormalizedVolume:
    """Volume of M(L) as n * sum_k (-1)^k a_k (n-k)^(n-2) over sqrt(n)."""
    n = spec.n
    terms = [a * (n - k) ** (n - 2) for k, a in enumerate(spec._profile)]
    return NormalizedVolume(n * (sum(terms[::2]) - sum(terms[1::2])), n)


def moduli_volume_forests(spec: LinkageSpec) -> NormalizedVolume:
    """Volume of M(L) as the decorated-forest sum of (-n)^(#marks) * N(F)
    over the forests whose free tree spans a long vertex set.  In the brute
    pass, n * top[N] sums it over all free trees on N of the first n bars,
    an equal share per N-set by symmetry, and a_{n-N} N-sets are long (their
    complement with the last bar is short).  Refuse past zonotope.BRUTE_MAX."""
    from . import zonotope

    n = spec.n
    if n > zonotope.BRUTE_MAX:
        raise ValueError(f"n={n} exceeds bound={zonotope.BRUTE_MAX}; use moduli_volume_theorem")
    top, a = zonotope._brute_sums(n, 1)[2], spec._profile
    return NormalizedVolume(sum(a[n - N] * (n * top[N] // math.comb(n, N)) for N in range(1, n + 1)), n)


# --- Betti numbers ---


def betti_vector(spec: LinkageSpec) -> tuple[int, ...]:
    """The Betti numbers of M(L), beta_k = a_k + a_{n-2-k} for k = 0..n-2.
    They are symmetric (beta_k = beta_{n-2-k}) and consistent with the
    Euler characteristic of the cell complex."""
    a, n = spec._profile, spec.n
    return tuple(a[k] + a[n - 2 - k] for k in range(n - 1))


# --- the cell complex ---


class CyclicPartition(_Value):
    """Cyclically ordered partition; stored rotated so the block containing
    the largest ground element comes last."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blocks = tuple(frozenset(b) for b in blocks)
        if not blocks or any(not b for b in blocks):
            raise ValueError("blocks must be non-empty")
        ground: set[int] = set()
        for b in blocks:
            if ground & b:
                raise ValueError("blocks must be disjoint")
            ground |= b
        top = max(ground)
        at = next(i for i, b in enumerate(blocks) if top in b)
        self._set(blocks[at + 1:] + blocks[:at + 1])

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset().union(*self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        parts = ["{" + ",".join(str(x) for x in sorted(b)) + "}" for b in self.blocks]
        return "(" + "".join(parts) + ")"


def is_refinement(p: CyclicPartition, q: CyclicPartition) -> bool:
    """Whether p refines q compatibly with the cyclic order: q's blocks must
    be unions of cyclically consecutive blocks of p, in the same cyclic
    order."""
    if p.ground_set != q.ground_set:
        raise ValueError("ground-set mismatch")
    owner: dict[int, int] = {}
    for qi, qb in enumerate(q.blocks):
        for x in qb:
            owner[x] = qi
    seq = []
    for pb in p.blocks:
        images = {owner[x] for x in pb}
        if len(images) != 1:
            return False  # a p-block straddles two q-blocks
        seq.append(images.pop())
    # collapse cyclically consecutive repeats
    collapsed = [seq[0]]
    for x in seq[1:]:
        if x != collapsed[-1]:
            collapsed.append(x)
    if len(collapsed) > 1 and collapsed[-1] == collapsed[0]:
        collapsed.pop()
    t = len(q.blocks)
    if len(collapsed) != t:
        return False
    shift = collapsed.index(0)
    return collapsed[shift:] + collapsed[:shift] == list(range(t))


def _admissible_partitions(spec: LinkageSpec) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All-short set partitions of the bars into at least 3 blocks, in
    enumeration order; each distinct block is tested once."""
    short = functools.cache(lambda block: is_short(spec, block))
    for blocks in set_partitions(range(1, spec.bar_count + 1)):
        if len(blocks) >= 3 and all(short(b) for b in blocks):
            yield blocks


def enumerate_cells(spec: LinkageSpec) -> Iterator[CyclicPartition]:
    """Cells of the configuration-space complex: cyclically ordered
    partitions of all n+1 bars into at least 3 short blocks.  A cell with m
    blocks has dimension n + 1 - m; cells come out by ascending dimension,
    partitions in enumeration order, arrangements in lexicographic order of
    the non-final blocks."""
    for blocks in sorted(_admissible_partitions(spec), key=len, reverse=True):
        last = next(b for b in blocks if spec.bar_count in b)
        rest = [b for b in blocks if b is not last]
        for arrangement in permutations(rest):
            yield CyclicPartition(arrangement + (last,))


_STIRLING = [[1]]  # row t: S(t, 0..t), grown across calls


def _stirling_rows(b: int) -> list[list[int]]:
    """Rows 0..b at least of S(t, m) = m S(t-1, m) + S(t-1, m-1)."""
    global _STIRLING
    if len(_STIRLING) <= b:
        rows = list(_STIRLING)
        while len(rows) <= b:
            prev = rows[-1]
            rows.append([0] + [m * prev[m] + prev[m - 1] for m in range(1, len(prev))] + [1])
        _STIRLING = rows  # publish only the finished list
    return _STIRLING


def f_vector(spec: LinkageSpec) -> tuple[int, ...]:
    """f[k] = number of k-dimensional cells, k = 0..n-2: each partition of
    the B = n+1 bars into m = n+1-k short blocks contributes (m-1)! cyclic
    arrangements.

    Two disjoint long sets would together exceed the perimeter, and no set
    sums to half of it, so a partition that is not all short has exactly one
    long block, and the others lie in its short complement.  With l_j long
    j-sets, the all-short partitions number P_m = S(B, m) - sum_j l_j
    S(B-j, m-1).  Of the long j-sets, C(n, j-1) - a_{j-1} hold the last bar.
    One without it is long iff its complement, an (n+1-j)-set with the last
    bar, is short, and a_{n-j} of those are.  So the long j-sets number
    l_j = C(n, j-1) + a_{n-j} - a_{j-1}, and the short ones s_j = C(n, j) -
    a_{n-j} + a_{j-1}.  With m >= 3, only l_1..l_{n-1} are read, and they
    read a_0..a_{n-1}.  The result is kept on the spec."""
    f = getattr(spec, "_f_vector", None)
    if f is not None:
        return f
    n = spec.n
    a = spec._profile
    longs = [0] + [math.comb(n, j - 1) + a[n - j] - a[j - 1] for j in range(1, n)]
    stirling = _stirling_rows(n + 1)
    f = tuple(  # S(B-j, m-1) vanishes for j > B-m+1
        (stirling[n + 1][m] - sum(longs[j] * stirling[n + 1 - j][m - 1] for j in range(1, n + 3 - m)))
        * math.factorial(m - 1)
        for m in range(n + 1, 2, -1)
    )
    object.__setattr__(spec, "_f_vector", f)
    return f


def euler_characteristic(spec: LinkageSpec) -> int:
    return sum((-1) ** k * f for k, f in enumerate(f_vector(spec)))


# --- equilateral comparison ---


class EquilateralVolumeComparison(_Value):
    """Volume of the equilateral (2m+1)-bar linkage by three routes.

    `binomial_display` evaluates the closed-form candidate
    sqrt(2m) * sum_{k=0}^m (-1)^k C(2m,k) (2m-k)^(2m-2); it disagrees with
    the short-set-profile theorem (and the forest route) already at m = 2,
    so both are carried along with an agreement flag.  `forest` is None
    past m = BRUTE_MAX / 2, where the forest route refuses."""

    __slots__ = _fields = ("binomial_display", "theorem", "forest", "agree")


def equilateral_volume(m: int) -> EquilateralVolumeComparison:
    from .zonotope import BRUTE_MAX

    if m < 2:
        raise ValueError("need m >= 2")
    n = 2 * m
    terms = [math.comb(n, k) * (n - k) ** (n - 2) for k in range(m + 1)]
    display = NormalizedVolume(n * (sum(terms[::2]) - sum(terms[1::2])), n)
    spec = LinkageSpec((1,) * (n + 1))
    theorem = moduli_volume_theorem(spec)
    forest = moduli_volume_forests(spec) if n <= BRUTE_MAX else None
    return EquilateralVolumeComparison(display, theorem, forest, display == theorem)
