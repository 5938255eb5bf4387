"""The package's public names: each module's ``__all__``, republished once,
and the names the benchmark's tracer looks up."""

import importlib
import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np

import zenometry

PUBLIC_NAMES = {
    "__version__",
    # decay
    "DecayModel", "Markovian", "Quadratic", "Tabulated",
    # channel
    "GaussianMode", "TabulatedMode", "CalibrationRow",
    "displacement_from_thickness", "overlap_gaussian", "overlap_numeric",
    "effective_time", "measured_visibility", "load_bd_calibration",
    # probes
    "ORACLE_MAX_QUBITS", "CapacityError", "ProbeSpec", "WhiteNoiseGhzParams",
    "DensityMatrix", "ghz_density_matrix", "evolve_oracle",
    "parity_expectation_dm", "parity_expectation_analytic", "sample_fringe",
    "synthetic_fringe", "witness_expectation", "witness_from_settings",
    "fidelity_bound",
    # fringes
    "FringeDataset", "estimates_from_counts",
    # estimation
    "FitError", "FitResult", "SensitivityResult", "MonteCarloErrors",
    "working_point", "optimal_time", "optimal_time_for_probe",
    "sensitivity_closed_form", "closed_form_result", "fit_fringe",
    "stencil_derivative", "sensitivity_from_fringe",
    "monte_carlo_errorbar", "apply_monte_carlo_errors", "noise_subtract",
    # analysis
    "ScalingFit", "ReferenceBounds", "NoiseSweepResult",
    "scaling_fit", "reference_bounds", "relative_resolution", "noise_sweep",
    "advantage_crossing",
    # config
    "ConfigError", "CONFIG_TYPES", "parse_config_text",
    "load_config", "serialize_config", "config_hash",
}


def test_public_names_are_pinned_and_listed_once():
    assert len(PUBLIC_NAMES) == 59
    assert sorted(zenometry.__all__) == sorted(PUBLIC_NAMES)



def _tracer():
    """``perfbench/tracer.py``, loaded without installing its wrappers."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_contract():
    # The tracer looks its functions and methods up by name, and its hooks
    # read attributes of their results: a deletion that breaks either fails
    # here, not only under ``perfbench/run.py --trace 1``.
    tracer = _tracer()
    for module, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"zenometry.{module}"),
                                name)), (module, name)
    for module, cls, name in tracer.METHODS:
        owner = getattr(importlib.import_module(f"zenometry.{module}"), cls)
        assert callable(vars(owner)[name]), (module, cls, name)

    model = zenometry.Quadratic(1.0)
    spec = zenometry.ProbeSpec("ghz", 2, 1.0)
    t = zenometry.optimal_time(model, 2)
    data = zenometry.sample_fringe(spec, model, t, np.linspace(0.0, math.pi, 25),
                                   1000, seed=1)
    state = zenometry.ghz_density_matrix(zenometry.WhiteNoiseGhzParams(2, 0.9))
    # each hook's (args, result), from a real call of what it wraps
    calls = {
        "probes.sample_fringe": ((), data),
        "estimation.monte_carlo_errorbar": (
            (), zenometry.monte_carlo_errorbar(data, t, 100, seed=2)),
        "estimation.fit_fringe": ((), zenometry.fit_fringe(data)),
        "probes.DensityMatrix.__init__": ((state,), None),
    }
    assert set(tracer.HOOKS) == set(calls)
    counters = Counter()
    for name, (args, result) in calls.items():
        tracer.HOOKS[name](counters, args, result)
    assert counters == {
        "probes.settings_sampled": 25,
        "estimation.bootstrap_trials": 100,
        "estimation.bootstrap_failed_trials": 0,
        "estimation.fit_iterations": 1,
        "estimation.fits_converged": 1,
        "probes.oracle_bytes": 16 * 4**2,
    }
