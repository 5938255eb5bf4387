"""Frozen record types: the behaviour every record class shares."""

import importlib
import math

import numpy as np
import pytest

import zenometry
from zenometry import (
    CalibrationRow,
    DensityMatrix,
    FringeDataset,
    Markovian,
    ProbeSpec,
    Quadratic,
    SensitivityResult,
)
from zenometry._record import FrozenRecordError, fields, record, replace
from zenometry.config import ScalingConfig

# The record types of each module, by name.
RECORD_TYPES = {
    "analysis": ["ScalingFit", "ReferenceBounds", "NoiseSweepResult"],
    "channel": ["GaussianMode", "CalibrationRow"],
    "config": ["_Qubits", "_Sampling", "_Resampling", "FringeConfig",
               "ScalingConfig", "CompareConfig", "NoiseSweepConfig",
               "WitnessConfig", "CalibrationConfig"],
    "decay": ["Markovian", "Quadratic"],
    "estimation": ["SensitivityResult", "FitResult", "MonteCarloErrors"],
    "fringes": ["FringeDataset"],
    "probes": ["ProbeSpec", "WhiteNoiseGhzParams", "DensityMatrix"],
}


def _dataset():
    theta = np.linspace(0.0, math.pi, 5)
    return FringeDataset(strategy="ghz", n_qubits=2, interrogation_time=0.3,
                         visibility=None, theta=theta, n_plus=[0] * 5,
                         n_total=[0] * 5, estimate=np.cos(2.0 * theta),
                         stderr=[0.0] * 5)


def _state():
    return DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def _raises(error, call, match=None):
    with pytest.raises(error, match=match):
        call()
    return True


def _owned_state_is_taken_as_is():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    owned = DensityMatrix(rho, _owned=True)
    copied = DensityMatrix(rho.copy())
    return (owned.matrix is rho and not rho.flags.writeable
            and copied.matrix is not rho and "_owned" not in vars(owned)
            and [f.name for f in fields(owned)] == ["matrix"])


def _own_methods_are_kept():
    @record
    class Point:
        x: float
        y: float = 0.0

        def __repr__(self):
            return "point"

    return (repr(Point(1.0)) == "point" and Point(1.0) == Point(1.0, 0.0)
            and Point.y == 0.0 and [f.name for f in fields(Point)] == ["x", "y"])


# (behaviour, a check that returns True when the behaviour holds)
CASES = [
    ("defaults", lambda: ProbeSpec("ghz", 3).visibility == 1.0
        and ScalingConfig().trials == 200),
    ("defaults stay class attributes", lambda: ScalingConfig.trials == 200
        and ScalingConfig.strategy == "ghz" and DensityMatrix._owned is False
        and not hasattr(ScalingConfig, "n_qubits")),
    ("positional arguments", lambda: ProbeSpec("product", 3, 0.5)
        == ProbeSpec(visibility=0.5, strategy="product", n_qubits=3)
        and CalibrationRow(0.1, 2.0, 1.0).intensity_minus == 1.0),
    ("post-init coerces", lambda: ProbeSpec("ghz", 3.0).n_qubits == 3
        and type(ProbeSpec("ghz", 3.0).n_qubits) is int),
    ("post-init validates", lambda: _raises(
        ValueError, lambda: ProbeSpec("ghz", 0), "n_qubits must be >= 1")),
    ("missing argument", lambda: _raises(
        TypeError, lambda: ProbeSpec("ghz"), "missing required argument "
        "'n_qubits'")),
    ("unknown keyword", lambda: _raises(
        TypeError, lambda: Quadratic(coefficient=1.0, rate=2.0),
        "unexpected keyword argument 'rate'")),
    ("too many arguments", lambda: _raises(
        TypeError, lambda: Quadratic(1.0, 2.0), "takes 1 arguments")),
    ("argument given twice", lambda: _raises(
        TypeError, lambda: Quadratic(1.0, coefficient=2.0),
        "multiple values for argument 'coefficient'")),
    ("frozen assignment", lambda: _raises(
        FrozenRecordError, lambda: setattr(Quadratic(1.0), "coefficient", 2.0),
        "cannot assign to field 'coefficient'")
        and issubclass(FrozenRecordError, AttributeError)),
    ("frozen new attribute", lambda: _raises(
        AttributeError, lambda: setattr(ProbeSpec("ghz", 2), "extra", 1))),
    ("frozen deletion", lambda: _raises(
        FrozenRecordError, lambda: delattr(Quadratic(1.0), "coefficient"),
        "cannot delete field 'coefficient'")),
    ("equal over fields", lambda: Quadratic(1.0) == Quadratic(1.0)
        and Quadratic(1.0) != Quadratic(2.0)
        and ScalingConfig() == ScalingConfig()
        and ScalingConfig() != ScalingConfig(trials=100)),
    ("equal needs the same type", lambda: Quadratic(1.0) != Markovian(1.0)
        and Quadratic(1.0) != (1.0,)),
    ("hash over fields", lambda: hash(Quadratic(0.5)) == hash((0.5,))
        and len({ScalingConfig(), ScalingConfig(), ScalingConfig(seed=1)}) == 2),
    ("eq=False keeps identity", lambda: (lambda a, s: a == a and a != a.replace()
        and hash(a) == object.__hash__(a) and s != _state()
        and hash(s) == object.__hash__(s))(_dataset(), _state())),
    ("_owned", _owned_state_is_taken_as_is),
    ("repr", lambda: repr(ProbeSpec("ghz", 3))
        == "ProbeSpec(strategy='ghz', n_qubits=3, visibility=1.0)"
        and repr(Quadratic(0.5)) == "Quadratic(coefficient=0.5)"),
    ("repr leaves out init-only values", lambda: repr(_state()).startswith(
        "DensityMatrix(matrix=array(") and "_owned" not in repr(_state())),
    ("replace", lambda: replace(ProbeSpec("ghz", 3), n_qubits=5)
        == ProbeSpec("ghz", 5, 1.0)),
    ("replace re-runs validation", lambda: _raises(
        ValueError, lambda: replace(ProbeSpec("ghz", 3), visibility=2.0),
        "visibility must lie in")
        and _raises(ValueError, lambda: _dataset().replace(interrogation_time=-1.0),
                    "interrogation time")
        and _raises(ValueError, lambda: replace(
            SensitivityResult("ghz", 1, 0.5, 1.0, 0.0, -0.5, 2.0),
            d2omega_t=0.0), "d2omega_t")),
    ("replace refuses unknown fields", lambda: _raises(
        TypeError, lambda: replace(Quadratic(1.0), rate=2.0))),
    ("a method of the class body is kept", _own_methods_are_kept),
]


@pytest.mark.parametrize("check", [case[1] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_record_behaviour(check):
    assert check()


def test_every_record_type_has_its_own_methods():
    # the benchmark's tracer wraps ``vars(cls)["__init__"]`` of a class
    found = {}
    for module_name in zenometry._MODULES:
        module = importlib.import_module(f"zenometry.{module_name}")
        found[module_name] = [name for name, value in vars(module).items()
                              if isinstance(value, type)
                              and value.__module__ == module.__name__
                              and "__record_params__" in vars(value)]
    assert found == RECORD_TYPES
    assert sum(map(len, found.values())) == 23
    for module_name, names in RECORD_TYPES.items():
        module = importlib.import_module(f"zenometry.{module_name}")
        for name in names:
            cls = getattr(module, name)
            for method in ("__init__", "__setattr__", "__delattr__", "__repr__"):
                assert method in vars(cls), (name, method)
            assert cls.__record_names__ == tuple(f.name for f in fields(cls))
