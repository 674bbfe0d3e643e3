from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycloperm import forests, oracle, verification, zonotope
from cycloperm.oracle import integer_partitions


def test_integer_partitions():
    assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(integer_partitions(0)) == [()]
    # partition numbers p(1..8)
    assert [len(list(integer_partitions(v))) for v in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


_PATCHED_VERIFY = """
import json
from cycloperm import forests, verification
forests.forest_count = lambda n: 12345
print(json.dumps([r.name for r in verification.run_all(2) if not r.passed]))
"""


def test_checks_hold_under_optimize():
    # python -O strips assert statements; the checks must fail all the same
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PATCHED_VERIFY],
        capture_output=True, text=True, check=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(proc.stdout) == ["forest-counts"]



def _last_tree_repeats_first(trees_on):
    def mutated(labels):
        trees = list(trees_on(labels))
        return iter(trees[:-1] + trees[:1])

    return mutated


def _two_marks_per_tree(_):
    # the predicate with the mark limit per tree raised from one to two
    def mutated(n, edges, marks):
        try:
            trees = oracle.components_of(range(1, n + 1), edges)
        except ValueError:
            return None
        if any(len(tree & set(marks)) > 2 for tree in trees):
            return None
        return tuple(tree for tree in trees if tree.isdisjoint(marks))

    return mutated


def _without_top(brute_buckets):
    # the pass drops its top level: the vectors by unmarked count lose it too
    def mutated(n):
        buckets, top, every = brute_buckets(n)
        return buckets, [0] * len(top), [e - t for e, t in zip(every, top)]

    return mutated


@pytest.mark.parametrize(
    "module, name, mutate, failing",
    [
        pytest.param(
            oracle, "trees_on", _last_tree_repeats_first,
            ["prufer-roundtrip-cayley", "rooted-forest-tables"], id="duplicated-tree",
        ),
        pytest.param(
            forests, "abel_eval", lambda abel: lambda n, a, x: abel(n, a, x) + 1,
            ["rooted-forest-tables"], id="abel-off-by-one",
        ),
        pytest.param(
            # the brute pass builds its orbit columns here too
            zonotope, "_columns", lambda columns: lambda n, edges, marks: columns(n, edges, ()),
            ["determinant-lemma", "cyclo-routes", "sharp-routes", "linkage-volumes"], id="no-mark-columns",
        ),
        pytest.param(
            oracle, "free_components", _two_marks_per_tree,
            ["determinant-lemma", "sharp-routes"], id="two-marks-per-tree",
        ),
        pytest.param(
            zonotope, "volume_by_forests", lambda vol: lambda n: zonotope.NormalizedVolume(vol(n).coeff + 1, n),
            ["cyclo-routes"], id="wrong-forest-volume",
        ),
        pytest.param(
            zonotope, "lattice_count_closed_form", lambda count: lambda n: count(n) + 1,
            ["cyclo-routes"], id="closed-lattice-off-by-one",
        ),
        pytest.param(
            # wrong only past the brute range: the forest comparison still reaches n = 9
            zonotope, "volume_closed_form", lambda vol: lambda n: zonotope.NormalizedVolume(1, n) if n == 9 else vol(n),
            ["cyclo-routes"], id="closed-volume-wrong-at-9",
        ),
        pytest.param(
            zonotope, "_brute_buckets", _without_top,
            ["cyclo-routes", "linkage-volumes"], id="brute-pass-without-top",
        ),
    ],
)
def test_each_check_catches_its_mutation(monkeypatch, module, name, mutate, failing):
    # one route patched at a time: exactly the checks that compare it fail
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert [r.name for r in verification.run_all(4) if not r.passed] == failing


def test_one_phi_table_feeds_the_closed_lattice_route_and_its_check(monkeypatch):
    # Phi(3) is 13; one wrong entry in the shared table reaches both readers
    monkeypatch.setitem(forests._GCD_SUMS, 3, 14)
    assert [r.name for r in verification.run_all(4) if not r.passed] == ["forest-counts", "cyclo-routes"]


@pytest.mark.parametrize("n_max, jobs", [(7, 1), (3, 2)])
def test_one_brute_pass_per_n(monkeypatch, n_max, jobs):
    # the volume, the lattice count and the sums by unmarked count of each n
    # come from one pass, kept for the process: verify runs it at most once
    # per n that its checks read (the brute range, and n = 4 of the named
    # linkages), and the brute routes read it again without a second pass
    brute_buckets, calls = zonotope._brute_buckets, []

    def counted(n):
        calls.append(n)
        return brute_buckets(n)

    monkeypatch.setattr(zonotope, "_brute_buckets", counted)
    assert all(r.passed for r in verification.run_all(n_max, jobs=jobs))
    brute_ns = range(2, min(n_max, zonotope.BRUTE_MAX) + 1)
    for n in brute_ns:
        assert zonotope.volume_bruteforce(n, jobs=jobs) == zonotope.volume_closed_form(n)
        assert zonotope.lattice_count_bruteforce(n, jobs=jobs) == zonotope.lattice_count_closed_form(n)
    assert calls == sorted({*brute_ns, 4})
