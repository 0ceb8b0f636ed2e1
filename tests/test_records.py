"""Value semantics of the record types: equality and hashing by fields,
immutability, the ``Name(field=value, ...)`` repr, and the validation the
slotted classes do in their constructors."""
import copy
import math
import pickle
from fractions import Fraction

import pytest

from majent.entropy import DegenerateParamsError, EntropyParams
from majent.properties import PropertyCheckRecord, PropertyKind, run_check
from majent.reference import CounterexampleRecord, ReferencePair
from majent.search import CellReport, RegionSweepReport, SweepConfig
from majent.simplex import ProbabilityDistribution, make_distribution


def _check():
    p, q = make_distribution((0.5, 0.3, 0.1, 0.1)), make_distribution((0.4, 0.4, 0.2, 0.0))
    return run_check(PropertyKind.SUPERMODULAR, p, q, EntropyParams(2.0, 3.0))


def _config():
    return SweepConfig(alpha_grid=(2,), beta_grid=(3,), dims=(3,), trials_per_cell=4, seed=1)


def _cell():
    found = CounterexampleRecord(_check(), 1, 0, 0, "reference-pair-1")
    return CellReport(2.0, 3.0, PropertyKind.SUPERMODULAR, found.check.margin, 4, 1, found)


#: Each builds a new instance with the same fields on every call.
BUILDERS = {
    ProbabilityDistribution: lambda: make_distribution([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]),
    EntropyParams: lambda: EntropyParams(2, 3),
    SweepConfig: _config,
    PropertyCheckRecord: _check,
    CounterexampleRecord: lambda: CounterexampleRecord(_check(), None, None, None, "reference-pair-1"),
    ReferencePair: lambda: ReferencePair(
        "pair", make_distribution((0.5, 0.5)), make_distribution((1.0,)),
        PropertyKind.SUBMODULAR, (0.5, 0.5), (1.0,), (1.0, 1.0, 1.0, 0.0), 1.0,
    ),
    CellReport: _cell,
    RegionSweepReport: lambda: RegionSweepReport(_config(), (_cell(),)),
}


def _fields(record):
    return getattr(type(record), "_fields", None) or type(record).__slots__


@pytest.mark.parametrize("cls", BUILDERS)
class TestValueSemantics:
    def test_equal_fields_give_equal_objects_and_hashes(self, cls):
        a, b = BUILDERS[cls](), BUILDERS[cls]()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = BUILDERS[cls]()
        for name in _fields(record):
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_copies_and_pickles_are_equal(self, cls):
        record = BUILDERS[cls]()
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record

    def test_repr_names_each_field(self, cls):
        record = BUILDERS[cls]()
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in _fields(record))
        assert repr(record) == f"{cls.__name__}({fields})"


class TestSlottedRecords:
    def test_reprs(self):
        assert repr(EntropyParams(2, 3)) == "EntropyParams(alpha=2.0, beta=3.0)"
        assert repr(make_distribution((0.5, 0.5))) == (
            "ProbabilityDistribution(weights=(0.5, 0.5), exact=None)"
        )

    def test_unequal_fields_or_types_are_unequal(self):
        assert EntropyParams(2.0, 3.0) != EntropyParams(3.0, 2.0)
        assert make_distribution([Fraction(1, 2)] * 2) != make_distribution([0.5, 0.5])
        assert ProbabilityDistribution((2.0, 3.0)) != EntropyParams(2.0, 3.0)
        assert EntropyParams(2.0, 3.0) != (2.0, 3.0)

    def test_entropy_params_validate_and_store_floats(self):
        with pytest.raises(DegenerateParamsError):
            EntropyParams(math.nan, 1.0)
        params = EntropyParams(2, 3)
        assert (type(params.alpha), type(params.beta)) == (float, float)
        assert params == EntropyParams.make(2.0, 3.0)

    def test_sweep_config_canonicalizes_and_stores_floats(self):
        cfg = SweepConfig(
            alpha_grid=(1, 2), beta_grid=(3,), dims=(2.0, 4),
            properties=[PropertyKind.SUBMODULAR, PropertyKind.SUBADDITIVE],
        )
        assert cfg.properties == (PropertyKind.SUBADDITIVE, PropertyKind.SUBMODULAR)
        assert [type(v) for v in cfg.alpha_grid + cfg.beta_grid] == [float] * 3
        assert [type(d) for d in cfg.dims] == [int, int]
        assert cfg == SweepConfig(
            (1.0, 2.0), (3.0,), (2, 4), properties=(PropertyKind.SUBADDITIVE, PropertyKind.SUBMODULAR)
        )

    @pytest.mark.parametrize("cls", [ProbabilityDistribution, EntropyParams, SweepConfig])
    def test_slotted_records_are_not_tuples(self, cls):
        record = BUILDERS[cls]()
        assert not isinstance(record, tuple)
        with pytest.raises(TypeError):
            len(record)
