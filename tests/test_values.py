"""Value semantics of the package's immutable result types: equality, hash,
no assignment, the dataclass-style repr, pickle and deepcopy."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

import cycloperm
from cycloperm import linkage, zonotope
from cycloperm.cli import ResultRecord
from cycloperm.forests import NormalizedVolume, _Value
from cycloperm.linkage import CyclicPartition, EquilateralVolumeComparison, LinkageSpec
from cycloperm.verification import CheckResult

# (build an instance, build one unequal to it, the instance's repr)
CASES = [
    (
        lambda: ResultRecord("cyclo.points", Fraction(18), 1, "closed", 4),
        lambda: ResultRecord("cyclo.points", Fraction(18), 1, "closed", 5),
        "ResultRecord(quantity='cyclo.points', coeff=Fraction(18, 1), radicand=1, method='closed', n=4)",
    ),
    (
        lambda: NormalizedVolume(Fraction(-2), 2),
        lambda: NormalizedVolume(Fraction(-2), 3),
        "NormalizedVolume(coeff=Fraction(-2, 1), radicand=2)",
    ),
    (
        lambda: LinkageSpec((Fraction(3, 2), 1, 1, 2)),
        lambda: LinkageSpec((1, 1, 1)),
        "LinkageSpec(lengths=(Fraction(3, 2), Fraction(1, 1), Fraction(1, 1), Fraction(2, 1)))",
    ),
    (
        lambda: CyclicPartition([(4, 5), (1,), (2,)]),
        lambda: CyclicPartition([(4, 5), (2,), (1,)]),
        "CyclicPartition(blocks=(frozenset({1}), frozenset({2}), frozenset({4, 5})))",
    ),
    (
        lambda: EquilateralVolumeComparison(NormalizedVolume(16, 4), NormalizedVolume(-80, 4), None, False),
        lambda: EquilateralVolumeComparison(NormalizedVolume(16, 4), NormalizedVolume(16, 4), None, True),
        "EquilateralVolumeComparison(binomial_display=NormalizedVolume(coeff=Fraction(16, 1), radicand=4), "
        "theorem=NormalizedVolume(coeff=Fraction(-80, 1), radicand=4), forest=None, agree=False)",
    ),
    (
        lambda: CheckResult("prufer-roundtrip", True, "ok"),
        lambda: CheckResult("prufer-roundtrip", False, "ok"),
        "CheckResult(name='prufer-roundtrip', passed=True, detail='ok')",
    ),
]


@pytest.mark.parametrize("make, make_other, expected_repr", CASES, ids=[type(c[0]()).__name__ for c in CASES])
def test_value_semantics(make, make_other, expected_repr):
    x, twin, other = make(), make(), make_other()
    assert x == twin and not x != twin
    assert x != other and not x == other
    fields = tuple(getattr(x, name) for name in x._fields)
    assert x != fields  # another class never compares equal
    assert hash(x) == hash(twin)
    assert {x, twin, other} == {x, other} and len({x, twin, other}) == 2
    for name in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == twin
    assert repr(x) == expected_repr
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in [*copies, copy.deepcopy(x), copy.copy(x)]:
        assert type(y) is type(x) and y == x and hash(y) == hash(x)


class _Pair(_Value):
    __slots__ = _fields = ("left", "right")


class _OtherPair(_Value):
    __slots__ = _fields = ("left", "right")


def test_classes_with_equal_fields_differ():
    assert _Pair(1, 2) != _OtherPair(1, 2) and not _Pair(1, 2) == _OtherPair(1, 2)
    assert _Pair(1, 2) == _Pair(1, 2)


def test_stored_profile_stays_out_of_equality_and_is_rebuilt_by_copies():
    spec = LinkageSpec((Fraction(3, 2), 1, 1, 2))
    f = linkage.f_vector(spec)  # stored on the spec from here on
    assert spec._f_vector is f
    assert "_profile" not in repr(spec) and "_f_vector" not in repr(spec)
    other = object.__new__(LinkageSpec)  # a spec that holds another profile
    other._set(spec.lengths, (1, 3, 3, 1))
    assert not hasattr(other, "_f_vector")  # computed from its own profile
    assert linkage.f_vector(other) != f
    assert other == spec and hash(other) == hash(spec)
    with pytest.raises(AttributeError):
        spec._profile = other._profile
    with pytest.raises(AttributeError):
        spec._f_vector = other._f_vector
    for y in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert y._profile is not spec._profile  # rebuilt through the constructor
        assert not hasattr(y, "_f_vector")
        assert linkage.a_profile(y) == linkage.a_profile(spec) == (1, 0, 0, 0)
        assert linkage.f_vector(y) == f


def test_normalized_volume_is_one_class():
    assert cycloperm.NormalizedVolume is NormalizedVolume
    assert zonotope.NormalizedVolume is linkage.NormalizedVolume is NormalizedVolume


def test_default_constructor_takes_every_field():
    with pytest.raises(TypeError):
        CheckResult("prufer-roundtrip", True)
