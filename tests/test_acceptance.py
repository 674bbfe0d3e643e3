"""End-to-end acceptance: every cross-check of `cycloperm verify` passes.

One test per named check in `cycloperm.verification`, and one per earlier
check merged into `cyclo-routes`, all read from a single `run_all(n_max=6)`,
the setting the `verify` benchmark runs.  Each check
pits a fast route against an independent one in exact arithmetic.  The two
headline results of the paper, the vanishing volume and its n = 2 exception,
are also asserted directly on the three volume routes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from cycloperm import verification
from cycloperm.zonotope import (
    NormalizedVolume,
    volume_bruteforce,
    volume_by_forests,
    volume_closed_form,
)


@pytest.fixture(scope="module")
def results() -> dict[str, verification.CheckResult]:
    return {r.name: r for r in verification.run_all(n_max=6)}


# cyclo-routes took over three earlier checks; each old name stays a case that
# reads the part of cyclo-routes' report covering what that check compared
_MERGED = {
    "cyclo-volume": ("cyclo-routes", "gives the forest volume", "for n <= 6;", "volumes agree for n <= 10"),
    "cyclo-lattice-count": ("cyclo-routes", "the closed lattice count for n <= 6", "Lambda = 0, 1, 18"),
    "grouped-abel-identity": ("cyclo-routes", "forest and closed volumes agree for n <= 10"),
}


@pytest.mark.parametrize("name", [name for name, _ in verification._CHECKS] + list(_MERGED))
def test_verify_check(results, name):
    check, *covers = _MERGED.get(name, (name,))
    assert results[check].passed, results[check].detail
    for part in covers:
        assert part in results[check].detail


def test_criterion_01_cyclo_volume_vanishes():
    for n in range(3, 7):
        assert volume_bruteforce(n).coeff == 0
    for n in range(3, 9):
        assert volume_by_forests(n).coeff == 0
    for n in range(2, 7):
        assert volume_bruteforce(n) == volume_by_forests(n) == volume_closed_form(n)


def test_criterion_02_volume_exception_at_n2():
    expected = NormalizedVolume(Fraction(-2), 2)
    assert volume_bruteforce(2) == expected
    assert volume_by_forests(2) == expected
    assert volume_closed_form(2) == expected
    assert expected.coeff != 0  # the lone exception to the vanishing theorem
