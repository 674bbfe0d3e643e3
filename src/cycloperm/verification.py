"""Cross-checks between independent computation routes.

Each check pits a closed form against a brute-force route from `oracle`
or a structurally different route and reports pass/fail; run_all drives
the CLI `verify` subcommand.  A failure means two routes that must agree
did not.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from . import forests, intlin, linkage, oracle, zonotope


def _require(cond: bool, msg: str = "") -> None:
    """assert that still checks under python -O."""
    if not cond:
        raise AssertionError(msg)


class CheckResult(forests._Value):
    __slots__ = _fields = ("name", "passed", "detail")


def _check_prufer_roundtrip(n_max: int, jobs: int) -> str:
    # n^(n-2) distinct spanning trees decoded from the n^(n-2) sequences:
    # decoding is a bijection onto Cayley's trees
    top = min(n_max, 7)
    for n in range(1, top + 1):
        whole = frozenset(range(1, n + 1))
        trees = list(oracle.trees_on(whole))
        for edges in trees:
            _require(oracle.components_of(whole, edges) == (whole,), f"{edges} does not span [{n}]")
        _require(len(set(trees)) == len(trees), f"two sequences decode to one tree at n={n}")
        _require(len(trees) == (n ** (n - 2) if n >= 2 else 1), f"Cayley count failed at n={n}")
    return f"decoded trees are distinct spanning trees, n^(n-2) of them, for n <= {top}"


def _check_forest_counts(n_max: int, jobs: int) -> str:
    known = {1: 1, 2: 2, 3: 7, 4: 38, 5: 291}
    for n, value in known.items():
        _require(forests.forest_count(n) == value, f"phi({n}) != {value}")
    known_gcd = {1: 1, 2: 3, 3: 13, 4: 89}
    for v, value in known_gcd.items():
        _require(forests.forest_gcd_sum(v) == value, f"Phi({v}) != {value}")
    sums_top = 20  # the partition sums take tens of ms up to here
    for n in range(1, sums_top + 1):
        phi, gcd_sum = oracle.forest_sums_by_partitions(n)
        _require(forests.forest_count(n) == phi, f"phi({n}) mismatch vs partition sum")
        _require(forests.forest_gcd_sum(n) == gcd_sum, f"Phi({n}) mismatch vs partition sum")
    top = min(n_max, 5)
    for n in range(1, top + 1):
        phi = gcd_sum = 0
        for edges, marks in oracle.forest_selections(n, range(n)):
            if not marks:  # a labeled forest: every tree is free
                phi += 1
                gcd_sum += math.gcd(*map(len, oracle.free_components(n, edges, marks)))
        _require(forests.forest_count(n) == phi, f"phi({n}) mismatch vs enumeration")
        _require(forests.forest_gcd_sum(n) == gcd_sum, f"Phi({n}) mismatch vs enumeration")
    return f"phi and Phi match the partition sums for n <= {sums_top} and enumeration for n <= {top}"


def _check_rooted_forest_tables(n_max: int, jobs: int) -> str:
    # a rooted forest on [n] with k trees is a tree on [n+1] in which
    # vertex n+1 has degree k (it is joined to the roots)
    top = min(n_max, 5)
    for n in range(0, top + 1):
        counts = [0] * (n + 1)
        for edges in oracle.trees_on(range(1, n + 2)):
            counts[sum(j == n + 1 for _, j in edges)] += 1
        for x in (-n, -2, -1, 0, 1, 2, 3, Fraction(1, 2)):
            value = sum(t * x ** k for k, t in enumerate(counts))
            _require(value == forests.abel_eval(n, -1, x), f"rooted forest counts differ at n={n}, x={x}")
    return f"rooted forests by tree count, enumerated as trees on [n+1], give x(x+n)^(n-1) for n <= {top}"


def _check_determinant_lemma(n_max: int, jobs: int) -> str:
    top = min(n_max, 5)
    for n in range(2, top + 1):
        # a selection of n - 1 edge and radial columns is regular exactly
        # when it is a decorated forest; each radial column is the ones
        # column minus n e_k, so |det| is n^m times that with unit mark
        # columns, N(F) (the free tree's size)
        for edges, marks in oracle.generator_selections(n, (n - 1,)):
            det = intlin.det_rows(zonotope._columns(n, edges, marks) + [(1,) * n])
            free = oracle.free_components(n, edges, marks)
            _require((det != 0) == (free is not None), f"det {det} for edges {edges}, marks {marks} at n={n}")
            if free is not None:
                _require(abs(det) == n ** len(marks) * len(free[0]), f"radial det != n^m N(F) at n={n}")
    return f"det lemma exhaustive for n <= {top}; non-forest selections have det 0"


def _check_cyclo_routes(n_max: int, jobs: int) -> str:
    # one brute pass gives both defining sums, stored finished as the brute routes return
    # them, and term by term: the top level by free-tree size N, every level by unmarked count v
    brute_top = min(n_max, zonotope.BRUTE_MAX)
    for n in range(2, brute_top + 1):
        volume, count, top, every = zonotope._brute_sums(n, jobs)
        _require(volume == zonotope.volume_by_forests(n), f"brute and forest volumes differ at n={n}")
        _require(count == zonotope.lattice_count_closed_form(n), f"brute and closed lattice counts differ at n={n}")
        terms = [math.comb(n, N) * N ** (N - 1) * forests._abel(n - N, -1, -n) for N in range(1, n + 1)]
        for N, term in enumerate(terms, 1):
            _require(n * top[N] == term, f"brute and forest volumes differ at n={n} in the term N={N}")
        terms = [-math.comb(n, v) * (-v) ** (n - v - 1) * zonotope.forest_gcd_sum(v) for v in range(1, n)]
        for v, term in enumerate(terms + [zonotope.forest_count(n)], 1):
            _require(every[v] == term, f"brute and closed lattice counts differ at n={n} in the term v={v}")
    wide_top = max(n_max, 10)
    for n in range(2, wide_top + 1):
        forest = zonotope.volume_by_forests(n)
        _require(forest == zonotope.volume_closed_form(n), f"forest and closed volumes differ at n={n}")
    for n, value in {2: 0, 3: 1, 4: 18}.items():
        _require(zonotope.lattice_count_closed_form(n) == value, f"closed lattice count Lambda({n}) != {value}")
    return (
        f"one brute pass per n, term by term, gives the forest volume and the closed lattice count "
        f"for n <= {brute_top}; forest and closed volumes agree for n <= {wide_top}; Lambda = 0, 1, 18 at n = 2, 3, 4"
    )


def _check_sharp_routes(n_max: int, jobs: int) -> str:
    # the worked examples: their columns are the worked matrices of the
    # paper up to column signs; the sharp formula refuses a selection
    # that is no partial decorated forest
    for edges, marks, expected in (
        (((1, 2), (2, 3), (4, 5)), (6,), 1),
        (((1, 2), (3, 4), (4, 5), (5, 6)), (2,), 4),
        (((1, 2), (3, 4), (4, 5), (5, 6)), (4,), 2),
    ):
        _require(oracle.sharp_of_partial_forest(6, edges, marks) == expected, f"sharp of worked forest {edges}")
        cols = zonotope._columns(6, edges, marks)
        _require(oracle.semiopen_count_direct(cols) == expected, f"scan of worked forest {edges}")
    top = min(n_max, 4)
    for n in range(2, top + 1):
        for edges, marks in oracle.forest_selections(n, range(n)):
            cols = zonotope._columns(n, edges, marks)
            s = oracle.sharp_of_partial_forest(n, edges, marks)
            _require(s == oracle.semiopen_count_direct(cols), f"sharp vs scan at n={n}")
    return f"sharp formula == point scan for n <= {top} and worked matrices"


def _check_permutohedron(n_max: int, jobs: int) -> str:
    top = min(n_max, 5)
    for n in range(1, top + 1):
        direct = oracle.permutohedron_lattice_points_direct(n)
        count = zonotope.permutohedron_lattice_count(n)
        _require(count == direct, f"permutohedron point count differs at n={n}")
    for n in range(2, min(n_max, 6) + 1):
        total = 0
        for edges in oracle.trees_on(range(1, n + 1)):
            total += abs(intlin.det_rows(zonotope._columns(n, edges, ()) + [(1,) * n]))
        coeff = zonotope.permutohedron_volume(n).coeff
        _require(coeff == total, f"tree determinant sum differs at n={n}")
    _require(oracle.hexagon_area_direct() == zonotope.permutohedron_volume(3))
    return f"point counts (n <= {top}) and tree-determinant volumes verified; hexagon = 9/sqrt(3)"


def _check_linkage_volumes(n_max: int, jobs: int) -> str:
    named = [
        (("1.2", 1, 1, "0.8", "2.2"), Fraction(28), 4),
        ((1, 1, 1, 1, 1), Fraction(-80), 4),
        ((1, 1, 1, 1, "3.5"), Fraction(64), 4),
    ]
    for lengths, coeff, radicand in named:
        spec = linkage.validate(lengths)
        vol = linkage.moduli_volume_theorem(spec)
        _require(vol == zonotope.NormalizedVolume(coeff, radicand), f"volume of {lengths}")
        _require(vol == linkage.moduli_volume_forests(spec), f"forest route for {lengths}")
    rng, top = random.Random(90210), min(n_max, zonotope.BRUTE_MAX)  # the passes cyclo-routes compared
    specs = [_random_linkage(rng, bars) for bars in range(4, top + 2) for _ in range(3)]
    for spec in specs:
        vol = linkage.moduli_volume_theorem(spec)
        _require(vol == linkage.moduli_volume_forests(spec), f"routes differ for {spec.lengths}")
    comparisons = {m: linkage.equilateral_volume(m) for m in range(2, max(top // 2, 2) + 1)}
    for m, cmp in comparisons.items():
        _require(cmp.forest == cmp.theorem, f"equilateral routes differ at m={m}")
        _require(not cmp.agree, f"binomial display unexpectedly agrees at m={m}")
    cmp = comparisons[2]
    _require(cmp.binomial_display == zonotope.NormalizedVolume(16, 4), "equilateral display")
    _require(cmp.theorem == zonotope.NormalizedVolume(-80, 4), "equilateral theorem value")
    return f"routes agree on 3 named, {len(specs)} random, m <= {max(comparisons)} equilateral linkages; display flagged"


def _check_linkage_topology(n_max: int, jobs: int) -> str:
    named = [
        (("1.2", 1, 1, "0.8", "2.2"), (1, 2, 1), (24, 42, 18), 0),
        ((1, 1, 1, 1, 1), (1, 8, 1), (24, 60, 30), -6),
        ((1, 1, 1, 1, "3.5"), (1, 0, 1), (24, 36, 14), 2),
    ]
    for lengths, b, f, chi in named:
        spec = linkage.validate(lengths)
        _require(linkage.betti_vector(spec) == b, f"betti of {lengths}")
        _require(linkage.f_vector(spec) == f, f"f-vector of {lengths}")
        _require(linkage.euler_characteristic(spec) == chi, f"chi of {lengths}")
    rng = random.Random(31337)
    for bars in range(4, 10):
        spec = _random_linkage(rng, bars)
        _require(linkage.a_profile(spec) == oracle.profile_by_subsets(spec), f"a-profile of {spec.lengths}")
        _require(linkage.f_vector(spec) == oracle.f_vector_by_partitions(spec), f"f-vector of {spec.lengths}")
        b = linkage.betti_vector(spec)
        _require(b == b[::-1], f"betti not symmetric for {spec.lengths}")
        chi = sum((-1) ** k * x for k, x in enumerate(b))
        _require(linkage.euler_characteristic(spec) == chi, f"chi mismatch for {spec.lengths}")
    walls = 0
    for _ in range(40):
        lengths = sorted(Fraction(rng.randrange(1, 8), rng.randrange(1, 4)) for _ in range(rng.randrange(3, 9)))
        try:
            linkage.validate(lengths)
            hit = False
        except linkage.WallHitError:
            hit = True
        except linkage.TriangleViolationError:  # raised only past the wall check
            hit = False
        _require(hit == oracle.hits_wall_by_subsets(lengths), f"wall check of {lengths}")
        walls += hit
    return (
        "betti, f-vectors, Euler characteristics consistent on named and random linkages; "
        f"profiles and f-vectors (4-9 bars) and the wall check (40 lists, {walls} walls) match enumeration"
    )


def _random_linkage(rng: random.Random, bars: int) -> linkage.LinkageSpec:
    while True:
        den = rng.choice([4, 5, 8, 10])
        nums = sorted(rng.randrange(1, 60) for _ in range(bars))
        try:
            return linkage.validate([Fraction(v, den) for v in nums])
        except linkage.LinkageError:
            continue


_CHECKS: list[tuple[str, Callable[[int, int], str]]] = [
    ("prufer-roundtrip-cayley", _check_prufer_roundtrip),
    ("forest-counts", _check_forest_counts),
    ("rooted-forest-tables", _check_rooted_forest_tables),
    ("determinant-lemma", _check_determinant_lemma),
    ("cyclo-routes", _check_cyclo_routes),
    ("sharp-routes", _check_sharp_routes),
    ("permutohedron", _check_permutohedron),
    ("linkage-volumes", _check_linkage_volumes),
    ("linkage-topology", _check_linkage_topology),
]


def run_all(n_max: int = 5, *, jobs: int = 1) -> list[CheckResult]:
    """Run every cross-check up to n_max; individual failures are captured,
    not raised."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    results = []
    for name, func in _CHECKS:
        try:
            detail = func(n_max, jobs)
            results.append(CheckResult(name, True, detail))
        except Exception as exc:  # report, don't abort the sweep
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
