"""Configuration spaces of planar polygonal linkages.

A linkage is a list of bar lengths l_1..l_{n+1} with the longest bar last.
Its configuration space M(L) (closed polygons up to isometry) is modeled by
the complex of cyclically ordered partitions of the bars into short blocks;
volumes, Betti numbers, and face counts all reduce to the short-set profile
a_k = #{k-subsets S of [n] with S + {n+1} short}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .forests import enumerate_decorated_forests, set_partitions
from .zonotope import NormalizedVolume


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
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class LinkageSpec:
    """Validated bar lengths; construction raises a LinkageError subclass on
    non-positive lengths, a longest bar out of place, a vanishing signed sum
    (wall), or a violated triangle inequality, in that order."""

    lengths: tuple[Fraction, ...]

    def __init__(self, lengths: Iterable):
        lengths = tuple(_as_fraction(x) for x in lengths)
        if not lengths:
            raise LinkageError("need at least one bar")
        if any(x <= 0 for x in lengths):
            raise NonPositiveLengthError("bar lengths must be positive")
        if max(lengths) != lengths[-1]:
            raise LongestNotLastError("longest bar must be listed last")
        half = sum(lengths) / 2
        for r in range(1, len(lengths) + 1):
            for sub in combinations(lengths, r):
                if sum(sub) == half:
                    raise WallHitError("a subset of bars sums to half the perimeter")
        if lengths[-1] >= half:
            raise TriangleViolationError("longest bar is at least half the perimeter")
        object.__setattr__(self, "lengths", lengths)

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


@dataclass(frozen=True)
class ShortSetProfile:
    """a[k] = number of k-subsets S of the first n bars with S + {last bar}
    short."""

    a: tuple[int, ...]

    def __post_init__(self):
        if not self.a or self.a[0] != 1:
            raise ValueError("a[0] must be 1: the longest bar alone is short")
        n = len(self.a) - 1
        if any(not 0 <= self.a[k] <= math.comb(n, k) for k in range(n + 1)):
            raise ValueError("a[k] must lie between 0 and C(n,k)")

    @property
    def n(self) -> int:
        return len(self.a) - 1

    def of(self, k: int) -> int:
        """a[k], extended by zero outside 0..n."""
        if 0 <= k <= self.n:
            return self.a[k]
        return 0


def a_profile(spec: LinkageSpec) -> ShortSetProfile:
    n = spec.n
    counts = []
    for k in range(n + 1):
        counts.append(
            sum(
                1
                for s in combinations(range(1, n + 1), k)
                if is_short(spec, set(s) | {n + 1})
            )
        )
    return ShortSetProfile(tuple(counts))


# --- volumes ---


def moduli_volume_theorem(spec: LinkageSpec) -> NormalizedVolume:
    """Volume of M(L) as n * sum_k (-1)^k a_k (n-k)^(n-2) over sqrt(n)."""
    n = spec.n
    if n < 2:
        raise LinkageError("need at least three bars")
    prof = a_profile(spec)
    s = sum((-1) ** k * prof.a[k] * (n - k) ** (n - 2) for k in range(n + 1))
    return NormalizedVolume(Fraction(n * s), n)


def moduli_volume_forests(spec: LinkageSpec, *, bound: int = 6) -> NormalizedVolume:
    """Volume of M(L) as the decorated-forest sum of (-n)^(#marks) * N(F)
    restricted to forests whose free tree spans a long vertex set."""
    n = spec.n
    if n < 2:
        raise LinkageError("need at least three bars")
    if n > bound:
        raise ValueError(f"n={n} exceeds bound={bound}; use moduli_volume_theorem")
    total = 0
    for f in enumerate_decorated_forests(n):
        if not is_short(spec, f.free_tree_vertices):
            total += (-n) ** f.mark_count * f.free_tree_size
    return NormalizedVolume(Fraction(total), n)


# --- Betti numbers ---


def betti(spec: LinkageSpec, k: int) -> int:
    """k-th Betti number of M(L): a_k + a_{n-2-k}.  The numbers are
    symmetric (beta_k = beta_{n-2-k}) and consistent with the Euler
    characteristic of the cell complex."""
    n = spec.n
    if not 0 <= k <= n - 2:
        raise ValueError(f"k must lie in 0..{n - 2}")
    return _betti_of(a_profile(spec), k)


def betti_vector(spec: LinkageSpec) -> tuple[int, ...]:
    prof = a_profile(spec)
    return tuple(_betti_of(prof, k) for k in range(spec.n - 1))


def _betti_of(prof: ShortSetProfile, k: int) -> int:
    return prof.of(k) + prof.of(prof.n - 2 - k)


# --- the cell complex ---


@dataclass(frozen=True)
class CyclicPartition:
    """Cyclically ordered partition; stored rotated so the block containing
    the largest ground element comes last."""

    blocks: tuple[frozenset[int], ...]

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
        rotated = blocks[at + 1:] + blocks[:at + 1]
        object.__setattr__(self, "blocks", rotated)

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


def _admissible_partitions(spec: LinkageSpec) -> dict[int, list[tuple[tuple[int, ...], ...]]]:
    """All-short set partitions of the bars, keyed by number of blocks."""
    bym: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
    for blocks in set_partitions(range(1, spec.bar_count + 1)):
        if len(blocks) < 3:
            continue
        if all(is_short(spec, b) for b in blocks):
            bym.setdefault(len(blocks), []).append(blocks)
    return bym


def enumerate_cells(spec: LinkageSpec) -> Iterator[CyclicPartition]:
    """Cells of the configuration-space complex: cyclically ordered
    partitions of all n+1 bars into at least 3 short blocks.  A cell with m
    blocks has dimension n + 1 - m; cells come out by ascending dimension,
    partitions in enumeration order, arrangements in lexicographic order of
    the non-final blocks."""
    bym = _admissible_partitions(spec)
    for m in range(spec.bar_count, 2, -1):
        for blocks in bym.get(m, []):
            last = next(b for b in blocks if spec.bar_count in b)
            rest = [b for b in blocks if b is not last]
            for arrangement in permutations(rest):
                yield CyclicPartition(arrangement + (last,))


def f_vector(spec: LinkageSpec) -> tuple[int, ...]:
    """f[k] = number of k-dimensional cells, k = 0..n-2: each admissible
    partition into m = n+1-k blocks contributes (m-1)! cyclic arrangements."""
    n = spec.n
    bym = _admissible_partitions(spec)
    return tuple(
        len(bym.get(n + 1 - k, [])) * math.factorial(n - k) for k in range(n - 1)
    )


def euler_characteristic(spec: LinkageSpec) -> int:
    return sum((-1) ** k * f for k, f in enumerate(f_vector(spec)))


# --- equilateral comparison ---


@dataclass(frozen=True)
class EquilateralVolumeComparison:
    """Volume of the equilateral (2m+1)-bar linkage by three routes.

    `binomial_display` evaluates the closed-form candidate
    sqrt(2m) * sum_{k=0}^m (-1)^k C(2m,k) (2m-k)^(2m-2); it disagrees with
    the short-set-profile theorem (and the forest route) already at m = 2,
    so both are carried along with an agreement flag."""

    binomial_display: NormalizedVolume
    theorem: NormalizedVolume
    forest: NormalizedVolume | None
    agree: bool


def equilateral_volume(m: int, *, forest_bound: int = 6) -> EquilateralVolumeComparison:
    if m < 2:
        raise ValueError("need m >= 2")
    n = 2 * m
    s = sum((-1) ** k * math.comb(n, k) * (n - k) ** (n - 2) for k in range(m + 1))
    display = NormalizedVolume(Fraction(n * s), n)
    spec = LinkageSpec((1,) * (n + 1))
    theorem = moduli_volume_theorem(spec)
    forest = moduli_volume_forests(spec) if n <= forest_bound else None
    return EquilateralVolumeComparison(display, theorem, forest, display == theorem)
