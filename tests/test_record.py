from dataclasses import dataclass

import pytest

from heckemod._record import record
from heckemod.galois import CycleType, DeduceResult, NotFound, SquarefreeFailure
from heckemod.qseries import QExpansion


def test_equality_and_hash_follow_type_and_fields():
    a, b = CycleType(3, (2, 2)), CycleType(ell=3, partition=(2, 2))
    assert a == b and hash(a) == hash(b)
    assert a != CycleType(3, (3, 1))
    other = SquarefreeFailure(3, (2, 2))
    assert a != other and hash(a) != hash(other)
    assert len({a, b, other}) == 2
    assert a != (3, (2, 2))


def test_repr_matches_dataclass():
    assert repr(CycleType(3, (2, 2))) == "CycleType(ell=3, partition=(2, 2))"
    assert repr(NotFound("c", {"p": 2}, "r")) == "NotFound(claim='c', subject={'p': 2}, reason='r', evidence=())"

    def point(decorate):
        class Point:
            x: int
            label: str = "origin"

        return decorate(Point)

    frozen, plain = point(record), point(dataclass(frozen=True))
    for args in ((0,), (1, "a"), (-2, "it's")):
        assert repr(frozen(*args)) == repr(plain(*args))


def test_defaults_and_keywords():
    v = DeduceResult("t", anchor_full="f")
    assert (v.target, v.anchor_irreducible, v.anchor_full) == ("t", None, "f")
    assert v == DeduceResult("t", None, "f")
    assert NotFound("c", {}, "r", evidence=(1,)).evidence == (1,)


def test_instances_are_frozen():
    a = CycleType(3, (2, 2))
    with pytest.raises(AttributeError):
        a.ell = 5
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.ell
    assert a == CycleType(3, (2, 2))


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing field 'partition'"):
        CycleType(3)
    with pytest.raises(TypeError, match="unknown field 'degree'"):
        CycleType(3, (2, 2), degree=4)
    with pytest.raises(TypeError, match="repeated field 'ell'"):
        CycleType(3, (2, 2), ell=3)
    with pytest.raises(TypeError, match="takes 2 fields but 3 were given"):
        CycleType(3, (2, 2), 4)


def test_post_init_runs_after_keyword_construction():
    # the positional form is checked in test_qseries
    with pytest.raises(ValueError):
        QExpansion(coeffs=())
    assert QExpansion(coeffs=(1, 2)).prec == 2
