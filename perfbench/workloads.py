"""The four workloads: seeded query rounds, reference answers, answer checks.

A round is a fixed multiset of queries whose order (and, for linkages, whose
bar lengths) the seed decides.  Costs depend on the multiset, not on the
seed, so rounds of different seeds take the same time.

Reference answers never come from the code under test at run time:
`reference.json` holds the seed code's answers (written by
make_reference.py) and `load_reference` re-derives every entry from paper
values and an exponential-formula recurrence before it is trusted.  Linkage
answers are checked against a short-set profile counted here and against
identities that the timed call does not compute.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

QUERY_DEADLINE_S = 60.0
PROBE_DEADLINE_S = 5.0
VERIFY_N_MAX = 6

# Each round is a fixed multiset of (function, n, copies).  Copies put the
# median and the tail rank (the 11th-largest latency) inside groups of
# queries of one kind, so those order statistics do not flip between kinds
# of different cost from run to run.

# brute-sweep: volume_bruteforce(7) alone is ~8 s and dominates throughput;
# the median falls among the lattice_count_bruteforce(4) copies and the
# tail among the lattice_count_bruteforce(5) copies.
BRUTE_MIX = [
    ("zonotope.volume_bruteforce", 7, 1),
    ("zonotope.volume_bruteforce", 6, 2),
    ("zonotope.volume_bruteforce", 5, 8),
    ("zonotope.volume_bruteforce", 4, 28),
    ("zonotope.lattice_count_bruteforce", 6, 2),
    ("zonotope.lattice_count_bruteforce", 5, 16),
    ("zonotope.lattice_count_bruteforce", 4, 16),
]

# closed-forms: n = 20..40; the repeated n (40 and 30 for the partition
# sums) would pay off for a table kept across calls, which cli bypasses.
# The median falls among the n = 30 partition sums, the tail among n = 40.
_PARTITION_SUMS = ("forests.forest_count", "forests.forest_gcd_sum", "zonotope.permutohedron_lattice_count")
CLOSED_MIX = (
    [("zonotope.lattice_count_closed_form", n, 1) for n in (20, 22, 28, 32, 36, 38, 40)]
    + [(fn, n, copies) for fn in _PARTITION_SUMS
       for n, copies in ((20, 1), (24, 1), (28, 1), (30, 5), (32, 1), (36, 1), (40, 4))]
    + [("zonotope.volume_by_forests", n, 1 + (n == 28)) for n in range(20, 41, 2)]
)

# linkage-sweep: (bars, near-equilateral?, linkages per round), twelve
# random-rational and twelve near-equilateral.  The f-vector enumerates
# Bell(bars) set partitions, so only linkages of at most F_VECTOR_MAX_BARS
# bars get it.  The median falls among the 10-bar a-profiles and volumes,
# whose cost does not depend on the lengths; the tail among the 8-bar
# f-vectors and Euler characteristics, whose cost does, so those linkages
# are all near-equilateral.  (Copies chosen from measured per-query costs.)
LINKAGE_MIX = [
    (7, False, 4), (7, True, 2), (8, True, 6), (9, False, 1), (10, False, 4),
    (10, True, 4), (11, False, 1), (12, False, 1), (13, False, 1),
]
F_VECTOR_MAX_BARS = 9
PROBE_BARS = 23

# cli: each README example in both formats CLI_REPEATS times, plus one
# verify, so the tail rank falls among the README examples.
CLI_REPEATS = 2

# First terms of OEIS A001858, labeled forests on n nodes, n = 0..8.
A001858 = [1, 1, 2, 7, 38, 291, 2932, 36961, 561948]


class ReferenceMismatch(Exception):
    """The reference table disagrees with its independent derivation."""


# --- independent reference values -------------------------------------


def forest_numbers(n_max: int) -> tuple[list[int], list[int]]:
    """phi(0..n_max) and Phi(0..n_max) from the exponential formula: F_d(m)
    counts forests on [m] whose tree sizes are all multiples of d, and
    Phi(v) = sum_{d | v} totient(d) F_d(v) because gcd = sum_{d | gcd} totient(d)."""

    def forests_with_sizes_divisible_by(d: int) -> list[int]:
        f = [1] + [0] * n_max
        for m in range(1, n_max + 1):
            f[m] = sum(
                math.comb(m - 1, k - 1) * k ** max(k - 2, 0) * f[m - k]
                for k in range(d, m + 1, d)
            )
        return f

    tables = {d: forests_with_sizes_divisible_by(d) for d in range(1, n_max + 1)}
    phi = tables[1]
    gcd_sum = [0] * (n_max + 1)
    for v in range(1, n_max + 1):
        gcd_sum[v] = sum(_totient(d) * tables[d][v] for d in range(1, v + 1) if v % d == 0)
    return phi, gcd_sum


def _totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def lattice_points(n: int, phi: list[int], gcd_sum: list[int]) -> int:
    """Signed lattice-point count of CP_{n+1} from phi and Phi."""
    return phi[n] - sum(
        math.comb(n, v) * (-v) ** (n - v - 1) * gcd_sum[v] for v in range(1, n)
    )


def expected_values() -> dict[str, object]:
    """Every reference entry as derived here, keyed like reference.json."""
    top = max(n for _, n, _ in CLOSED_MIX)
    phi, gcd_sum = forest_numbers(top)
    if phi[: len(A001858)] != A001858:
        raise ReferenceMismatch("forest recurrence does not reproduce OEIS A001858")
    if [lattice_points(n, phi, gcd_sum) for n in (2, 3, 4)] != [0, 1, 18]:
        raise ReferenceMismatch("lattice formula does not give the paper's 0, 1, 18")

    def volume(n: int) -> dict:
        # Paper: -2/sqrt(2) at n = 2, zero for every n >= 3.
        return {"coeff": "-2" if n == 2 else "0", "radicand": n}

    derived = {
        "zonotope.volume_bruteforce": {n: volume(n) for n in range(2, 8)},
        "zonotope.lattice_count_bruteforce": {
            n: lattice_points(n, phi, gcd_sum) for n in range(2, 7)
        },
    }
    for fn, n, _ in CLOSED_MIX:
        if fn == "zonotope.lattice_count_closed_form":
            value = lattice_points(n, phi, gcd_sum)
        elif fn == "forests.forest_gcd_sum":
            value = gcd_sum[n]
        elif fn == "zonotope.volume_by_forests":
            value = volume(n)
        else:
            value = phi[n]
        derived.setdefault(fn, {})[n] = value
    return derived


def check_table(table: dict) -> None:
    """Raise unless every entry of expected_values() is in the table, equal."""
    for fn, values in expected_values().items():
        for n, value in values.items():
            if table.get(fn, {}).get(str(n)) != value:
                raise ReferenceMismatch(f"reference {fn}({n}) disagrees with its derivation")


def load_reference() -> dict:
    """reference.json, after check_table."""
    reference = json.loads(REFERENCE.read_text())
    check_table(reference["values"])
    return reference


# --- linkages ---------------------------------------------------------


def _generic(nums: list[int]) -> bool:
    """No subset sums to half the perimeter and the longest bar (last) is
    shorter than half of it; lengths are integers over a common denominator."""
    total = sum(nums)
    if 2 * nums[-1] >= total:
        return False
    if total % 2:
        return True
    reachable = 1  # bit s set: some subset sums to s
    for x in nums:
        reachable |= reachable << x
    return not (reachable >> (total // 2)) & 1


def random_linkage(rng: random.Random, bars: int, near_equilateral: bool) -> tuple[list[int], int]:
    """Numerators (ascending, longest last) over a denominator."""
    while True:
        if near_equilateral:
            den = 10
            nums = sorted(10 + (rng.random() < 0.3) for _ in range(bars))
        else:
            den = rng.choice([4, 5, 8, 10])
            nums = sorted(rng.randrange(1, 60) for _ in range(bars))
        if _generic(nums):
            return nums, den


def short_set_profile(nums: list[int]) -> list[int]:
    """a[k] = #{k-subsets S of the first n bars : S + last bar is short},
    counted by a (size, sum) table."""
    *rest, last = nums
    total = sum(nums)
    ways = [dict() for _ in range(len(rest) + 1)]  # ways[k][s]: k-subsets with sum s
    ways[0][0] = 1
    for x in rest:
        for k in range(len(rest) - 1, -1, -1):
            for s, c in ways[k].items():
                ways[k + 1][s + x] = ways[k + 1].get(s + x, 0) + c
    return [sum(c for s, c in ways[k].items() if 2 * (s + last) < total) for k in range(len(rest) + 1)]


def linkage_facts(nums: list[int]) -> dict:
    """Reference a-profile, Betti vector, Euler characteristic and volume."""
    n = len(nums) - 1
    a = short_set_profile(nums)

    def a_of(k: int) -> int:
        return a[k] if 0 <= k <= n else 0

    betti = [a_of(k) + a_of(n - 2 - k) for k in range(n - 1)]
    chi = sum((-1) ** k * b for k, b in enumerate(betti))
    coeff = n * sum((-1) ** k * a[k] * (n - k) ** (n - 2) for k in range(n + 1))
    return {"n": n, "a": a, "betti": betti, "chi": chi, "volume": {"coeff": str(coeff), "radicand": n}}


def _lengths(nums: list[int], den: int) -> list[str]:
    return [str(Fraction(v, den)) for v in nums]


# --- rounds -----------------------------------------------------------


def _call(fn: str, *args, **extra) -> dict:
    return {"fn": fn, "args": list(args), **extra}


def _mix_round(mix: list, seed: int, reference: dict, **extra) -> list[dict]:
    table = reference["values"]
    queries = [
        _call(fn, n, expect=table[fn][str(n)], **extra)
        for fn, n, copies in mix
        for _ in range(copies)
    ]
    random.Random(seed).shuffle(queries)
    return queries


def brute_round(seed: int, reference: dict) -> list[dict]:
    return _mix_round(BRUTE_MIX, seed, reference, kwargs={"jobs": 1})


def closed_round(seed: int, reference: dict) -> list[dict]:
    return _mix_round(CLOSED_MIX, seed, reference)


def linkage_round(seed: int, reference: dict) -> list[dict]:
    rng = random.Random(seed)
    specs = [(bars, eq) for bars, eq, copies in LINKAGE_MIX for _ in range(copies)]
    rng.shuffle(specs)
    queries = []
    for i, (bars, eq) in enumerate(specs):
        nums, den = random_linkage(rng, bars, eq)
        facts = linkage_facts(nums)
        key = f"L{i}"
        follow = [
            _call("linkage.a_profile", {"$ref": key}, expect=facts["a"], facts=facts),
            _call("linkage.betti_vector", {"$ref": key}, expect=facts["betti"], facts=facts),
            _call("linkage.moduli_volume_theorem", {"$ref": key}, expect=facts["volume"]),
        ]
        if bars <= F_VECTOR_MAX_BARS:
            follow.append(_call("linkage.f_vector", {"$ref": key}, facts=facts))
            follow.append(_call("linkage.euler_characteristic", {"$ref": key}, expect=facts["chi"]))
        rng.shuffle(follow)
        queries.append(_call("linkage.validate", _lengths(nums, den), store=key, expect={"bars": bars}))
        queries.extend(follow)
    return queries


def cli_round(seed: int, reference: dict, *, verify_jobs: int = 2) -> list[dict]:
    queries = [{"argv": g["argv"], "stdout": g["stdout"]} for g in reference["cli"]] * CLI_REPEATS
    queries.append(
        {"argv": ["verify", "--n-max", str(VERIFY_N_MAX), "--jobs", str(verify_jobs)], "verify": True}
    )
    random.Random(seed).shuffle(queries)
    return queries


def cli_probes(seed: int) -> list[dict]:
    """Inputs that hang at the seed: each must answer correctly, or exit 2
    with a reason, within PROBE_DEADLINE_S."""
    phi, _ = forest_numbers(100)
    nums, den = random_linkage(random.Random(seed), PROBE_BARS, False)
    facts = linkage_facts(nums)
    return [
        {"argv": ["forests", "phi", "--n", "100"], "coeff": str(phi[100]), "radicand": 1},
        {
            "argv": ["linkage", "volume", "--lengths", ",".join(_lengths(nums, den))],
            "coeff": facts["volume"]["coeff"],
            "radicand": facts["n"],
        },
    ]


ROUNDS = {
    "brute-sweep": brute_round,
    "closed-forms": closed_round,
    "linkage-sweep": linkage_round,
    "cli": cli_round,
}


# --- answer checks ----------------------------------------------------


def check_answer(query: dict, value) -> str | None:
    """None when an in-process answer is right, else the reason."""
    if "expect" in query and value != query["expect"]:
        return f"expected {query['expect']!r}, got {value!r}"
    facts = query.get("facts")
    if facts is None:
        return None
    n = facts["n"]
    fn = query["fn"]
    if fn == "linkage.a_profile":
        if any(not 0 <= x <= math.comb(n, k) for k, x in enumerate(value)):
            return "a-profile outside 0..C(n,k)"
    elif fn == "linkage.betti_vector":
        if value != value[::-1]:
            return "Betti vector is not a palindrome"
    elif fn == "linkage.f_vector":
        if len(value) != n - 1:
            return f"f-vector has {len(value)} entries, expected {n - 1}"
        if any(f % math.factorial(n - k) for k, f in enumerate(value)):
            return "f[k] is not a multiple of (n-k)!"
        if sum((-1) ** k * f for k, f in enumerate(value)) != facts["chi"]:
            return "chi of the f-vector differs from the alternating Betti sum"
    return None


def check_cli(query: dict, code: int, out: str, err: str) -> str | None:
    """None when a CLI invocation exited 0 with the right output."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    if query.get("verify"):
        lines = out.splitlines()
        if not lines or not all(line.startswith("PASS ") for line in lines[:-1]):
            return "a verify check did not pass"
        if not (lines[-1].startswith("all ") and lines[-1].endswith(" checks passed")):
            return f"unexpected verify summary {lines[-1]!r}"
        return None
    if out != query["stdout"]:
        return f"stdout differs from golden: {out[:200]!r}"
    if err:
        return f"unexpected stderr: {err[:200]!r}"
    return None


def check_probe(probe: dict, code: int, out: str, err: str) -> str | None:
    """A probe passes with the right value or with exit 2 and a reason."""
    if code == 2 and err.strip():
        return None
    if code != 0:
        return f"exit {code}"
    fields = dict(part.split("=", 1) for part in out.split() if "=" in part)
    if fields.get("coeff") != probe["coeff"] or fields.get("radicand") != str(probe["radicand"]):
        return "wrong value"
    return None
