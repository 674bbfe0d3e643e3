"""Labeled forests on [n] by count: the exponential-formula tables behind
phi and Phi, Abel polynomials, and set partitions.

Everything here is exact integer/rational combinatorics; enumeration orders
are deterministic so downstream output is reproducible.  Every route imports
this module, so the immutable-value base of the result types and
NormalizedVolume (the exact c / sqrt(n) of every volume route) live here.
A single forest is a plain edge tuple; the decorated-forest definition and
the tree enumeration are check code, in `oracle`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence


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
