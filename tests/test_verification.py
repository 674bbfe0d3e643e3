from __future__ import annotations

from cycloperm.verification import _integer_partitions as integer_partitions


def test_integer_partitions():
    assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(integer_partitions(0)) == [()]
    # partition numbers p(1..8)
    assert [len(list(integer_partitions(v))) for v in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]
