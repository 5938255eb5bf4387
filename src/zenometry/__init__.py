"""Frequency metrology with GHZ and product probes under tunable dephasing.

The package simulates Ramsey-type parity fringes for entangled and product
probes in dephasing environments (memoryless, Zeno-regime quadratic, or
tabulated), estimates the per-total-time frequency variance from those
fringes, and compares the measured scaling against the standard quantum
limit, the Zeno limit, and the Heisenberg envelope.  A beam-displacer channel
model maps photonic geometry onto effective interrogation times, and a dense
density-matrix oracle cross-checks every closed form.
"""

from .analysis import (
    NoiseSweepResult,
    NoiseSweepRow,
    ReferenceBounds,
    ScalingFit,
    advantage_crossing,
    noise_sweep,
    reference_bounds,
    relative_resolution,
    scaling_fit,
)
from .channel import (
    BdPairGeometry,
    CalibrationRow,
    GaussianMode,
    TabulatedMode,
    displacement_from_thickness,
    effective_time,
    load_bd_calibration,
    measured_visibility,
    overlap_gaussian,
    overlap_numeric,
)
from .config import (
    CONFIG_TYPES,
    ConfigError,
    config_hash,
    load_config,
    parse_config_text,
    serialize_config,
)
from .decay import DecayModel, Markovian, Quadratic, Tabulated
from .estimation import (
    FitError,
    FitResult,
    MonteCarloErrors,
    SensitivityResult,
    apply_monte_carlo_errors,
    closed_form_result,
    fit_fringe,
    monte_carlo_errorbar,
    noise_subtract,
    optimal_time,
    optimal_time_for_probe,
    sensitivity_closed_form,
    sensitivity_from_fringe,
    stencil_derivative,
    working_point,
)
from .fringes import FringeDataset, estimates_from_counts
from .probes import (
    ORACLE_MAX_QUBITS,
    CapacityError,
    DensityMatrix,
    ProbeSpec,
    WhiteNoiseGhzParams,
    evolve_oracle,
    fidelity_bound,
    ghz_density_matrix,
    parity_expectation_analytic,
    parity_expectation_dm,
    sample_fringe,
    synthetic_fringe,
    witness_expectation,
    witness_from_settings,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # decay
    "DecayModel", "Markovian", "Quadratic", "Tabulated",
    # channel
    "GaussianMode", "TabulatedMode", "BdPairGeometry", "CalibrationRow",
    "displacement_from_thickness", "overlap_gaussian", "overlap_numeric",
    "effective_time", "measured_visibility", "load_bd_calibration",
    # probes and fringes
    "ORACLE_MAX_QUBITS", "CapacityError", "ProbeSpec", "WhiteNoiseGhzParams",
    "DensityMatrix", "ghz_density_matrix", "evolve_oracle",
    "parity_expectation_dm", "parity_expectation_analytic", "sample_fringe",
    "synthetic_fringe", "witness_expectation", "witness_from_settings",
    "fidelity_bound", "FringeDataset", "estimates_from_counts",
    # estimation
    "FitError", "FitResult", "SensitivityResult", "MonteCarloErrors",
    "working_point", "optimal_time", "optimal_time_for_probe",
    "sensitivity_closed_form", "closed_form_result", "fit_fringe",
    "stencil_derivative", "sensitivity_from_fringe",
    "monte_carlo_errorbar", "apply_monte_carlo_errors", "noise_subtract",
    # analysis
    "ScalingFit", "ReferenceBounds", "NoiseSweepRow", "NoiseSweepResult",
    "scaling_fit", "reference_bounds", "relative_resolution", "noise_sweep",
    "advantage_crossing",
    # configuration
    "ConfigError", "CONFIG_TYPES", "parse_config_text",
    "load_config", "serialize_config", "config_hash",
]
