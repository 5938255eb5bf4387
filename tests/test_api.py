"""The package's public names: each module's ``__all__``, republished once
and loaded on first use, and the names the benchmark's tracer looks up."""

import ast
import importlib
import importlib.util
import json
import math
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np

import zenometry

from test_cli import run_fresh

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC_NAMES = {
    "__version__",
    # decay
    "DecayModel", "Markovian", "Quadratic", "Tabulated", "optimal_time",
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
    "working_point", "sensitivity_closed_form", "closed_form_result",
    "fit_fringe", "stencil_derivative", "sensitivity_from_fringe",
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
    assert len(PUBLIC_NAMES) == 58
    assert sorted(zenometry.__all__) == sorted(PUBLIC_NAMES)
    assert zenometry.optimal_time is zenometry.decay.optimal_time


def _package_reads(path):
    """The names ``path`` reads as ``zm.<name>``, sorted."""
    return tuple(sorted({node.attr
                         for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name)
                         and node.value.id == "zm"}))


# what the oracle driver reads from the package
ORACLE_NAMES = _package_reads(PERFBENCH / "oracle_driver.py")


def test_submodules_load_on_first_use(tmp_path):
    # a fresh interpreter: this session has loaded every module already
    script = textwrap.dedent(f"""
        import json, sys
        import zenometry

        def loaded():
            return sorted(name for name in sys.modules
                          if name.startswith("zenometry.") or name == "hashlib")

        report = {{"on_import": loaded()}}
        for name in {ORACLE_NAMES!r}:
            getattr(zenometry, name)
        report["after_oracle_names"] = loaded()
        report["probes_is_module"] = (
            zenometry.probes is sys.modules["zenometry.probes"])
        try:
            zenometry.no_such_name
        except AttributeError as exc:
            report["unknown"] = str(exc)
        namespace = {{}}
        exec("from zenometry import *", namespace)
        report["star"] = sorted(set(namespace) - {{"__builtins__"}})
        report["dir"] = dir(zenometry)
        print(json.dumps(report))
    """)
    proc = run_fresh(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["on_import"] == []
    assert ORACLE_NAMES and set(ORACLE_NAMES) <= PUBLIC_NAMES
    # the oracle's names load no fit, bootstrap, config or channel code
    assert report["after_oracle_names"] == [
        "zenometry._numpy", "zenometry._record", "zenometry.decay", "zenometry.fringes",
        "zenometry.probes", "zenometry.rng", "zenometry.tables"]
    assert report["probes_is_module"]
    assert "'no_such_name'" in report["unknown"]
    assert report["star"] == sorted(PUBLIC_NAMES)
    assert PUBLIC_NAMES <= set(report["dir"])


def _tracer():
    """``perfbench/tracer.py``, loaded without installing its wrappers."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
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


def test_tracer_wraps_names_the_package_resolves_later(tmp_path):
    # the oracle driver reads its names from the package after the tracer
    # has installed; each must resolve to the wrapped function
    config = tmp_path / "oracle.ini"
    config.write_text("[oracle]\nn_values = 2..3\nomegas = 0.0, 0.7\n"
                      "fusion_visibility = 0.9\nmodel_coefficient = 1.0\n"
                      "tolerance = 1e-12\n")
    script = textwrap.dedent(f"""
        import importlib.util, json, sys
        from collections import Counter

        def load(name):
            spec = importlib.util.spec_from_file_location(
                name, {str(PERFBENCH)!r} + "/" + name + ".py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module

        tracer = load("tracer").Tracer()
        tracer.install()
        import zenometry
        assert "evolve_oracle" not in vars(zenometry)
        rc = load("oracle_driver").main(
            ["--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}])
        print(json.dumps({{"rc": rc,
                          "spans": Counter(span[0] for span in tracer.spans)}}))
    """)
    proc = run_fresh(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rc"] == 0
    assert report["spans"]["probes.evolve_oracle"] == 4
    assert report["spans"]["probes.DensityMatrix.__init__"] == 6


# numpy names that reach BLAS or LAPACK
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot"}


def _scoped_nodes(node, scope=""):
    """Every node under ``node``, with the dotted name of its class or
    function."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_no_blas_call_outside_min_eigenvalue():
    # Every fit solves its 2x2 normal equations in closed form, so no command
    # makes a BLAS or LAPACK call.  The one numpy.linalg use is the library
    # entry DensityMatrix.min_eigenvalue, which no command reaches.
    found, allowed = [], []
    for path in sorted(Path(zenometry.__file__).parent.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            where = (path.name, scope, getattr(node, "lineno", None))
            if isinstance(getattr(node, "op", None), ast.MatMult):
                found.append(where)
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                if (path.name, scope, node.attr) == (
                        "probes.py", "DensityMatrix.min_eigenvalue", "linalg"):
                    allowed.append(where)
                else:
                    found.append(where)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if any(part in BLAS_NAMES for name in names
                       for part in name.split(".")):
                    found.append(where)
    assert found == []
    assert len(allowed) == 1
