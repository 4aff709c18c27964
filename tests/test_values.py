"""StringParams, Oscillation and SimConfig are immutable value objects: they
compare and hash by their public fields, print those fields, refuse
assignment, and survive pickle and copy."""

import copy
import pickle

import pytest

from ssp import InvalidParameters, Oscillation, SimConfig, StringParams

P = StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0)

# (object, an equal object built by keyword, its public fields, its repr)
VALUES = [
    (
        P,
        StringParams(mass=1.0, sigma=1.0, l=1.25, l0=1.0),
        ("l0", "l", "sigma", "mass"),
        "StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0)",
    ),
    (
        Oscillation(P, -0.5),
        Oscillation(y0=0.5, params=StringParams(1.0, 1.25, 1.0, 1.0)),
        ("params", "y0"),
        "Oscillation(params=StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0), y0=0.5)",
    ),
    (
        SimConfig(),
        SimConfig(n_periods=0.5, rel_tol=1e-10),
        ("rel_tol", "n_periods"),
        "SimConfig(rel_tol=1e-10, n_periods=0.5)",
    ),
]
IDS = ["StringParams", "Oscillation", "SimConfig"]


@pytest.mark.parametrize("value, same, fields, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, same, fields, text):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is not None


@pytest.mark.parametrize("value, same, fields, text", VALUES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(value, same, fields, text):
    assert value is not same
    assert value == same and not value != same
    assert hash(value) == hash(same)
    as_tuple = tuple(getattr(value, name) for name in fields)
    assert value != as_tuple and as_tuple != value
    assert value.__eq__(as_tuple) is NotImplemented


def test_different_fields_compare_unequal():
    assert StringParams(1.0, 1.25, 1.0, 2.0) != P
    assert Oscillation(P, 0.25) != Oscillation(P, 0.5)
    assert SimConfig(n_periods=2) != SimConfig()
    assert SimConfig(rel_tol=1e-9) != SimConfig()


@pytest.mark.parametrize("value, same, fields, text", VALUES, ids=IDS)
def test_repr_is_exact(value, same, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, same, fields, text", VALUES, ids=IDS)
@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trips(value, same, fields, text, round_trip):
    back = round_trip(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value) and repr(back) == text
    # the derived slots are rebuilt too
    params = back.params if isinstance(back, Oscillation) else back
    if isinstance(params, StringParams):
        assert (params._unit_l0, params._period_exp) == (P._unit_l0, P._period_exp)
    if isinstance(back, Oscillation):
        assert back._unit_y0 == value._unit_y0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(rel_tol=0.0), "rel_tol must be in (0, 1e-2), got 0.0"),
        (dict(rel_tol=1e-2), "rel_tol must be in (0, 1e-2), got 0.01"),
        (dict(rel_tol=float("nan")), "rel_tol must be in (0, 1e-2), got nan"),
        (dict(n_periods=0), "n_periods must be a positive multiple of 0.5, got 0"),
        (dict(rel_tol=1e-9, n_periods=-3), "n_periods must be a positive multiple of 0.5, got -3"),
        (dict(n_periods=1.3), "n_periods must be a positive multiple of 0.5, got 1.3"),
        (dict(n_periods=float("nan")), "n_periods must be a positive multiple of 0.5, got nan"),
        (dict(n_periods=float("inf")), "n_periods must be a positive multiple of 0.5, got inf"),
    ],
)
def test_sim_config_refusal_messages(kwargs, message):
    with pytest.raises(InvalidParameters) as info:
        SimConfig(**kwargs)
    assert str(info.value) == message


def test_sim_config_defaults_and_positional_order():
    assert SimConfig(1e-8, 3) == SimConfig(rel_tol=1e-8, n_periods=3)
    cfg = SimConfig()
    assert (cfg.rel_tol, cfg.n_periods) == (1e-10, 0.5)
