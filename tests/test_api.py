"""The package's public names: each module's ``__all__``, republished once."""

import zenometry

PUBLIC_NAMES = {
    "__version__",
    # decay
    "DecayModel", "Markovian", "Quadratic", "Tabulated",
    # channel
    "GaussianMode", "TabulatedMode", "BdPairGeometry", "CalibrationRow",
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
    "ScalingFit", "ReferenceBounds", "NoiseSweepRow", "NoiseSweepResult",
    "scaling_fit", "reference_bounds", "relative_resolution", "noise_sweep",
    "advantage_crossing",
    # config
    "ConfigError", "CONFIG_TYPES", "parse_config_text",
    "load_config", "serialize_config", "config_hash",
}


def test_public_names_are_pinned_and_listed_once():
    assert len(PUBLIC_NAMES) == 61
    assert sorted(zenometry.__all__) == sorted(PUBLIC_NAMES)

