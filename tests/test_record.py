"""The immutable value types: equal, hashed and printed by their fields."""
import copy
import inspect
import pickle
from fractions import Fraction

import pytest

import sigmaample.cli  # noqa: F401  (defines every value type)
from sigmaample.engine import SigmaAmpleVerdict
from sigmaample.intmat import IntegerMatrix, unipotent_reduction
from sigmaample.intpoly import RationalInterval
from sigmaample.lattice import AutomorphismAction, DivisorClass, SymmetricForm
from sigmaample.numpoly import NumericalPolynomial
from sigmaample.record import Record


def test_fields_are_the_positional_parameters():
    shared = []
    for cls in Record.__subclasses__():
        if cls.__init__ is not Record.__init__:
            params = list(inspect.signature(cls.__init__).parameters)[1:]
            assert params == list(cls._fields), cls.__name__
            continue
        shared.append(cls)
        fields = cls._fields
        values = [object() for _ in fields]
        record = cls(*values)
        assert [getattr(record, f) for f in fields] == values, cls.__name__
        assert record == cls(*values)
        with pytest.raises(TypeError, match="given"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match="given"):
            cls(*values, object())
        # fields are positional only
        with pytest.raises(TypeError):
            cls(*values[:-1], **{fields[-1]: values[-1]})
    assert shared


def test_equality_and_hash_follow_the_fields():
    a = SymmetricForm.of(2, 2, (((0, 1), Fraction(1, 2)), ((0, 0), 0)))
    b = SymmetricForm(2, 2, (((0, 1), 3),), 6)
    assert a == b and hash(a) == hash(b)
    assert a != SymmetricForm(2, 2, (((0, 1), 1),))
    # the same field values in another class are not equal
    assert DivisorClass.of(1) != NumericalPolynomial([1])
    assert SigmaAmpleVerdict(None, None, None) == SigmaAmpleVerdict(None, None, None)
    assert SigmaAmpleVerdict(None, None, None) != SigmaAmpleVerdict(1, None, None)


def test_repr_lists_the_fields_but_not_the_cache():
    form = SymmetricForm(1, 1, (((0,), 3),))
    assert repr(form) == "SymmetricForm(rank=1, arity=1, numerators=(((0,), 3),), denominator=1)"
    assert repr(RationalInterval(1, 2)) == "RationalInterval(lo=Fraction(1, 1), hi=Fraction(2, 1))"


def test_values_are_immutable_and_carry_no_dict():
    m = IntegerMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = ((0,),)
    with pytest.raises(AttributeError):
        del m.rows
    with pytest.raises(AttributeError):
        m.extra = 1
    assert not hasattr(m, "__dict__")
    assert m.rows == ((1, 0), (0, 1))


def test_copy_and_pickle_round_trip():
    action = AutomorphismAction("shear", IntegerMatrix([[1, 1], [0, 1]]), True)
    form = SymmetricForm(2, 2, (((0, 1), 1),), 2)
    for value in (action, form, DivisorClass((1, -2), 3)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    assert pickle.loads(pickle.dumps(form)).evaluate([(1, 0), (0, 1)]) == Fraction(1, 2)


def test_equal_matrices_share_a_cache_entry():
    unipotent_reduction(IntegerMatrix([[1, 1], [0, 1]]))
    hits = unipotent_reduction.cache_info().hits
    unipotent_reduction(IntegerMatrix([[1, 1], [0, 1]]))
    assert unipotent_reduction.cache_info().hits == hits + 1
