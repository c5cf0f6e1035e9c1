"""The frozen value records of the report modules behave as frozen dataclasses do.

Each record is checked for construction by position, by keyword and from
defaults, its own refusals, equality only with its own class, a hash that is
the hash of its field tuple, refused assignment and deletion, the dataclass
`repr`, and copy, deepcopy and pickle round trips.
"""

import copy
import math
import pickle

import pytest

from hyperon.inequalities import BellSettings, InequalitySpec, ProbModel
from hyperon.interferometer import InterferometerConfig, SpinState
from hyperon.params import DecayParameters, ParameterRow, ParameterTable

ROW = ParameterRow("Lambda", "uds", "p pi-", 0.639, 0.642, -0.0361, 1, "a note")

# (record class, field names, positional arguments, the field values they give)
RECORDS = [
    (DecayParameters, ("alpha", "beta", "gamma"), (0.6, 0.0, 0.8), (0.6, 0.0, 0.8)),
    (ParameterRow, ("parent", "quarks", "channel", "branching", "alpha", "phi_over_pi", "gamma_sign", "note"),
     ("Lambda", "uds", "p pi-", 0.639, 0.642, -0.0361, 1, "a note"),
     ("Lambda", "uds", "p pi-", 0.639, 0.642, -0.0361, 1, "a note")),
    (ParameterTable, ("rows",), ((ROW,),), ((ROW,),)),
    (SpinState, ("theta", "phi", "length"), (1.0, 0.5, 0.25), (1.0, 0.5, 0.25)),
    (InterferometerConfig, ("chi", "splitting", "chi_sp"), (0.3, (1.0, 3.0), -0.2), (0.3, (1.0, 3.0), -0.2)),
    # __post_init__ stores the coefficients and settings as tuples of floats
    (InequalitySpec, ("name", "joint", "singles_a", "singles_b"),
     ("I2", [[1, 1], [1, -1]], [-1, 0], [-1, 0]),
     ("I2", ((1.0, 1.0), (1.0, -1.0)), (-1.0, 0.0), (-1.0, 0.0))),
    (BellSettings, ("a", "b"), ([[0, 0, 1], [1, 0, 0]], [[0, 1, 0]]),
     (((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), ((0.0, 1.0, 0.0),))),
    (ProbModel, ("k",), (0.46,), (0.46,)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def field_tuple(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, names, args, values", RECORDS, ids=IDS)
class TestFrozenRecord:
    def test_positional_and_keyword(self, cls, names, args, values):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        mixed = cls(*args[:1], **dict(zip(names[1:], args[1:])))
        for record in (by_position, by_keyword, mixed):
            assert type(record) is cls
            assert field_tuple(record, names) == values
        assert by_position == by_keyword == mixed

    def test_bad_arguments(self, cls, names, args, values):
        with pytest.raises(TypeError):
            cls(*args, *args[-1:])  # one positional argument too many
        with pytest.raises(TypeError):
            cls(*args, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})  # the first field twice
        if cls not in (SpinState, InterferometerConfig):
            with pytest.raises(TypeError):
                cls(*args[:-1])  # the last field, which has no default, missing

    def test_equality_only_with_its_own_class(self, cls, names, args, values):
        record = cls(*args)
        assert record == cls(*args)
        assert not record != cls(*args)
        assert record != values
        assert not record == values  # == itself, not only !=
        assert record != object()

    def test_hash_is_the_field_tuple_hash(self, cls, names, args, values):
        record = cls(*args)
        assert hash(record) == hash(values) == hash(cls(*args))
        assert {record, cls(*args)} == {record}

    def test_assignment_and_deletion_refused(self, cls, names, args, values):
        record = cls(*args)
        for name in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert field_tuple(record, names) == values

    def test_repr(self, cls, names, args, values):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(cls(*args)) == f"{cls.__qualname__}({fields})"

    @pytest.mark.parametrize("round_trip", [
        copy.copy,
        copy.deepcopy,
        *(lambda r, p=protocol: pickle.loads(pickle.dumps(r, protocol=p))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_copy_and_pickle_round_trip(self, cls, names, args, values, round_trip):
        record = cls(*args)
        again = round_trip(record)
        assert type(again) is cls
        assert again == record
        assert hash(again) == hash(record)
        assert field_tuple(again, names) == values
        with pytest.raises(AttributeError):
            setattr(again, names[0], values[0])


def test_equal_fields_of_another_record_class_are_unequal():
    params, state = DecayParameters(0.6, 0.0, 0.8), SpinState(0.6, 0.0, 0.8)
    assert params != state
    assert not params == state
    assert len({params, state}) == 2


class TestDefaults:
    def test_spin_state_length(self):
        state = SpinState(1.0, 0.5)
        assert state.length == 1.0
        assert state == SpinState(theta=1.0, phi=0.5, length=1.0)
        assert repr(state) == "SpinState(theta=1.0, phi=0.5, length=1.0)"

    def test_interferometer_config(self):
        cfg = InterferometerConfig()
        assert (cfg.chi, cfg.splitting, cfg.chi_sp) == (0.0, (1.0, 1.0), 0.0)
        assert InterferometerConfig(chi_sp=0.5) == InterferometerConfig(0.0, (1.0, 1.0), 0.5)
        assert repr(cfg) == "InterferometerConfig(chi=0.0, splitting=(1.0, 1.0), chi_sp=0.0)"

    def test_defaults_are_per_field(self):
        # a default does not fill an earlier field that is missing
        with pytest.raises(TypeError):
            SpinState(1.0)
        with pytest.raises(TypeError):
            SpinState(phi=0.5)


class TestRefusals:
    """Each record's own checks still run after its fields are set."""

    @pytest.mark.parametrize("make", [
        lambda: DecayParameters(0.6, 0.0, 0.9),
        lambda: DecayParameters(math.nan, 0.0, 0.8),
        lambda: SpinState(math.nan, 0.0),
        lambda: SpinState(1.0, math.inf),
        lambda: SpinState(1.0, 0.0, 1.5),
        lambda: SpinState(1.0, 0.0, length=math.nan),
        lambda: InterferometerConfig(chi=math.inf),
        lambda: InterferometerConfig(chi_sp=math.nan),
        lambda: InterferometerConfig(splitting=(0.0, 0.0)),
        lambda: InterferometerConfig(splitting=(-1.0, 2.0)),
        lambda: InequalitySpec("X", [[1, 1], [1]], [0, 0], [0, 0]),
        lambda: InequalitySpec("X", [1, 1], [0, 0], [0, 0]),
        lambda: InequalitySpec("X", [[math.nan]], [0], [0]),
        lambda: InequalitySpec("X", [[1e200]], [0], [0]),
        lambda: BellSettings(a=[[0, 0, 2]], b=[[1, 0, 0]]),
        lambda: BellSettings(a=[[0, 0, 1]], b=[]),
        lambda: BellSettings(a=[0, 0, 1], b=[[1, 0, 0]]),
        lambda: BellSettings(a=[[0, 1]], b=[[1, 0, 0]]),
        lambda: ProbModel(1.5),
        lambda: ProbModel(-0.1),
        lambda: ProbModel(math.nan),
    ])
    def test_refused(self, make):
        with pytest.raises(ValueError):
            make()

    def test_post_init_stores_converted_fields(self):
        spec = InequalitySpec("X", [[1, 2]], [3], (4, 5))
        assert (spec.joint, spec.singles_a, spec.singles_b) == (((1.0, 2.0),), (3.0,), (4.0, 5.0))
        assert spec.n_a == 1 and spec.n_b == 2
