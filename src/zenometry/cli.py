"""Command-line front end producing reproducible CSV/JSON artifacts.

Every subcommand reads one INI section (same name as the subcommand) into
its config type, applies flag overrides, and writes its tables plus a
``summary.json`` into the output directory.  A subcommand has a ``--seed`` or
``--mode`` flag only when its type holds that field.  All CSV files begin
with ``# key=value`` comment rows carrying the configuration hash and, for
the sampling commands, the seed, so a rerun with the same inputs is
byte-identical.

Exit codes: 0 on success, 2 for configuration/validation problems, 1 for
runtime failures.

Threads: unless ``OPENBLAS_NUM_THREADS`` is set, or numpy is already loaded,
``main`` starts numpy with one OpenBLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import repeat
from pathlib import Path

from ._numpy import np
from .analysis import noise_sweep, reference_bounds, relative_resolution, scaling_fit
from .channel import GaussianMode, load_bd_calibration, overlap_gaussian
from . import config
from .config import CONFIG_TYPES, ConfigError, config_hash, load_config
from .decay import DecayModel, Markovian, Quadratic, Tabulated, optimal_time
from .estimation import (
    SENSITIVITY_CSV_HEADER,
    FitError,
    SensitivityResult,
    apply_monte_carlo_errors,
    closed_form_result,
    fit_fringe,
    monte_carlo_errorbar,
    noise_subtract,
    sensitivity_from_fringe,
)
from .probes import (
    ProbeSpec,
    WhiteNoiseGhzParams,
    fidelity_bound,
    sample_fringe,
    synthetic_fringe,
    witness_from_settings,
)
from .tables import format_column, write_table

__all__ = ["main", "build_parser"]


def _comments(cfg, section: str) -> list[tuple[str, object]]:
    pairs = [("config_sha256", config_hash(cfg, section))]
    # only the sampling commands' types hold a seed
    if getattr(cfg, "seed", None) is not None:
        pairs.append(("seed", cfg.seed))
    return pairs


def _derived_seed(seed: int, *tags) -> int:
    """Stable per-work-item seed so runs do not share sampling streams."""
    payload = ":".join([str(seed), *map(str, tags)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _decay_model(cfg: config.FringeConfig | config.CompareConfig) -> DecayModel:
    if cfg.model_kind == "quadratic":
        return Quadratic(cfg.model_coefficient)
    if cfg.model_kind == "markovian":
        return Markovian(cfg.model_coefficient)
    # validation has loaded this table once already
    return Tabulated.from_csv(cfg.model_csv)


def _theta_grid(cfg: config.FringeConfig | config.CompareConfig,
                fringe_frequency: int) -> np.ndarray:
    """Uniform grid on [0, pi] whose spacing lands the working point
    ``pi/(2m)`` on a node with two neighbours on each side.  The fit does not
    need the node; the rule stays so that sampled outputs do not change."""
    if cfg.theta_points is not None:
        return np.linspace(0.0, math.pi, cfg.theta_points)
    # The node index of pi/(2m) is (P-1)/(2m), so P-1 must be a multiple of
    # 2m and at least 4m; 25 points qualify for m = 1..4 and 6.
    m = fringe_frequency
    points = 25 if m <= 6 and 24 % (2 * m) == 0 else 4 * m + 1
    return np.linspace(0.0, math.pi, points)


def _sample(cfg: config.FringeConfig | config.CompareConfig, spec: ProbeSpec,
            model: DecayModel, t: float, *tags):
    """A sampled fringe: the configured grid and shots, and a seed derived
    from the config seed and ``tags``."""
    return sample_fringe(spec, model, t, _theta_grid(cfg, spec.fringe_frequency),
                         cfg.shots_per_setting, _derived_seed(cfg.seed, *tags))


def _visibility_for(cfg: config.FringeConfig, position: int) -> float:
    if cfg.visibilities is None:
        return 1.0
    if len(cfg.visibilities) == 1:
        return cfg.visibilities[0]
    return cfg.visibilities[position]


def _interrogation_time(cfg: config.FringeConfig, spec: ProbeSpec,
                        model: DecayModel) -> float:
    if cfg.interrogation_time == "opt":
        return optimal_time(model, spec.fringe_frequency)
    return float(cfg.interrogation_time)


def _run_fringe(cfg: config.FringeConfig, out: Path) -> dict:
    model = _decay_model(cfg)
    # The dataset writes its own derived '# seed=' row.
    comments = [("config_sha256", config_hash(cfg, "fringe"))]
    per_n, fringes = {}, []
    for position, n in enumerate(cfg.n_values):
        spec = ProbeSpec(cfg.strategy, n, _visibility_for(cfg, position))
        t = _interrogation_time(cfg, spec, model)
        if cfg.mode == "montecarlo":
            data = _sample(cfg, spec, model, t, "fringe", n)
        else:
            data = synthetic_fringe(spec, model, t,
                                    _theta_grid(cfg, spec.fringe_frequency))
        fit = fit_fringe(data)
        fringes.append((n, data))
        per_n[str(n)] = {
            "interrogation_time": t,
            "visibility": spec.visibility,
            "amplitude": fit.amplitude,
            "phase": fit.phase,
            "amplitude_stderr": fit.amplitude_stderr,
        }
    # every N is fitted before the first file is written, so a failed fit
    # leaves no partial output
    for n, data in fringes:
        data.to_csv(out / f"fringe_n{n}.csv", extra_comments=comments)
    return {"per_n": per_n}


def _bootstrapped(data, t: float, trials: int,
                  seed: int) -> tuple[SensitivityResult, dict]:
    """Read-out with bootstrap error bars attached, and the trial counts:
    all, failed, and failed per reason."""
    result = sensitivity_from_fringe(data, t)
    errors = monte_carlo_errorbar(data, t, trials, seed)
    return (apply_monte_carlo_errors(result, errors),
            {"trials": errors.trials, "failed": errors.failed_trials,
             "failed_by_reason": errors.failures_by_reason})


def _run_scaling(cfg: config.ScalingConfig, out: Path) -> dict:
    model = _decay_model(cfg)
    comments = _comments(cfg, "scaling")
    series: dict = {"raw": [], "subtracted": []}
    bootstrap: dict = {"raw": {}, "subtracted": {}}
    for position, n in enumerate(cfg.n_values):
        v0 = _visibility_for(cfg, position)
        spec = ProbeSpec(cfg.strategy, n, v0)
        t = _interrogation_time(cfg, spec, model)
        if cfg.mode == "analytic":
            series["raw"].append(closed_form_result(spec, model, t))
            series["subtracted"].append(closed_form_result(
                ProbeSpec(cfg.strategy, n, 1.0), model, t))
            continue
        # one sampled fringe per N, read out raw and noise-subtracted
        data = _sample(cfg, spec, model, t, "scaling", n)
        for name, fringe in (("raw", data), ("subtracted", noise_subtract(data, v0))):
            result, bootstrap[name][str(n)] = _bootstrapped(
                fringe, t, cfg.trials, _derived_seed(cfg.seed, "scaling-mc", n, name))
            series[name].append(result)
    summary: dict = {}
    for name, results in series.items():
        write_table(out / f"resolution_{name}.csv", comments,
                    SENSITIVITY_CSV_HEADER, [r.to_csv_row() for r in results])
        if len(results) >= 3:
            fit = scaling_fit([(r.n_qubits, r.d2omega_t, r.stderr_d2omega_t)
                               for r in results])
            summary[f"slope_{name}"] = {
                "slope": fit.slope,
                "stderr": fit.slope_stderr,
                "intercept": fit.intercept,
            }
        if name == "raw" and cfg.model_kind == "quadratic":
            bounds = reference_bounds(cfg.n_values, cfg.model_coefficient)
            rows = [
                (r.n_qubits, r.d2omega_t, sql, zl, hl, r.d2omega_t < sql)
                for r, sql, zl, hl in zip(results, bounds.sql, bounds.zl, bounds.hl)
            ]
            write_table(out / "bounds.csv", comments,
                        ("N", "value", "bound_sql", "bound_zl", "bound_hl",
                         "beats_sql"), rows)
    if cfg.mode == "montecarlo":
        summary["bootstrap"] = bootstrap
    return summary


def _run_compare(cfg: config.CompareConfig, out: Path) -> dict:
    model_test = _decay_model(cfg)
    model_ref = Markovian(cfg.markovian_rate)
    comments = _comments(cfg, "compare-markovian")
    rows = []
    bootstrap: dict = {"test": {}, "reference": {}}
    for n in cfg.n_values:
        if cfg.mode == "analytic":
            r2 = relative_resolution(n, model_test, model_ref)
            stderr = 0.0
        else:
            r2, stderr, counts = _compare_montecarlo(cfg, n, model_test,
                                                     model_ref)
            for tag, entry in counts.items():
                bootstrap[tag][str(n)] = entry
        rows.append((n, r2, stderr, math.sqrt(n)))
    write_table(out / "relative_resolution.csv", comments,
                ("N", "r_squared", "r_squared_stderr", "sqrt_n_reference"), rows)
    summary: dict = {"r_squared": {str(r[0]): r[1] for r in rows}}
    if cfg.mode == "montecarlo":
        summary["bootstrap"] = bootstrap
    return summary


def _compare_montecarlo(cfg: config.CompareConfig, n: int, model_test: DecayModel,
                        model_ref: Markovian) -> tuple[float, float, dict]:
    """Ratio and its stderr, and the bootstrap counts per series."""
    spec = ProbeSpec("ghz", n, 1.0)
    results = {}
    counts = {}
    for tag, model in (("test", model_test), ("reference", model_ref)):
        t = optimal_time(model, spec.fringe_frequency)
        data = _sample(cfg, spec, model, t, "compare", n, tag)
        results[tag], counts[tag] = _bootstrapped(
            data, t, cfg.trials, _derived_seed(cfg.seed, "compare-mc", n, tag))
    test, ref = results["test"], results["reference"]
    r2 = ref.d2omega_t / test.d2omega_t
    stderr = r2 * math.sqrt((test.stderr_d2omega_t / test.d2omega_t) ** 2
                            + (ref.stderr_d2omega_t / ref.d2omega_t) ** 2)
    return r2, stderr, counts


def _run_noise_sweep(cfg: config.NoiseSweepConfig, out: Path) -> dict:
    # validation admits only the quadratic family, whose closed forms take
    # its coefficient
    assert cfg.model_kind == "quadratic"
    coefficient = cfg.model_coefficient
    comments = _comments(cfg, "noise-sweep")
    # N and its SQL and HL bounds do not depend on the visibility, so every
    # visibility shares them and their text, and each distinct cell is
    # formatted once
    bounds = reference_bounds(range(1, cfg.n_max + 1), coefficient)
    n_text, sql_text, hl_text = (tuple(format_column(column)) for column in
                                 (bounds.n_values, bounds.sql, bounds.hl))
    crossings = {}

    # one visibility's columns at a time; write_table drains the rows, and
    # so fills crossings, before the summary is returned
    def rows():
        for v in cfg.fusion_visibilities:
            sweep = noise_sweep(v, bounds.n_values, coefficient)
            crossings[repr(v)] = sweep.crossing
            (v_text,) = format_column((v,))
            yield from zip(repeat(v_text), n_text,
                           format_column(sweep.d2omega_t_ghz), sql_text,
                           hl_text, format_column(sweep.beats_sql))

    write_table(out / "noise_sweep.csv", comments,
                ("fusion_visibility", "N", "d2omegaT_ghz", "bound_sql",
                 "bound_hl", "beats_sql"), rows())
    return {"crossings": crossings}


def _run_witness(cfg: config.WitnessConfig, out: Path) -> dict:
    comments = _comments(cfg, "witness")
    rows = []
    if cfg.witness_value is not None:
        rows.append((None, "direct", cfg.witness_value,
                     fidelity_bound(cfg.witness_value)))
    elif cfg.x_expectation is not None:  # validation: the three go together
        w = witness_from_settings(cfg.x_expectation, cfg.p_all_zero,
                                  cfg.p_all_one)
        rows.append((None, "settings", w, fidelity_bound(w)))
    else:
        for n in cfg.n_values:
            # the dense oracle's value, read from its closed form
            w = WhiteNoiseGhzParams(n, cfg.fusion_visibility).witness
            rows.append((n, "oracle", w, fidelity_bound(w)))
    write_table(out / "witness.csv", comments,
                ("N", "source", "w_value", "fidelity_bound"), rows)
    return {"witness": [
        {"n_qubits": r[0], "source": r[1], "w_value": r[2],
         "fidelity_bound": r[3]} for r in rows
    ]}


def _run_channel_calibration(cfg: config.CalibrationConfig, out: Path) -> dict:
    table = load_bd_calibration(cfg.table_csv)  # validation has loaded it once
    mode = GaussianMode(cfg.waist_mm)
    comments = _comments(cfg, "channel-calibration")
    rows = []
    worst = 0.0
    for entry in table:
        x0 = entry.total_separation
        predicted = overlap_gaussian(x0, mode)
        measured = entry.measured_visibility
        residual = predicted - measured
        worst = max(worst, abs(residual))
        rows.append((entry.per_bd_displacement, x0, predicted, measured,
                     residual))
    write_table(out / "calibration.csv", comments,
                ("per_bd_displacement_mm", "total_separation_mm",
                 "predicted_visibility", "measured_visibility", "residual"),
                rows)
    return {"max_abs_residual": worst, "rows": len(rows)}


_HANDLERS = {
    "fringe": _run_fringe,
    "scaling": _run_scaling,
    "compare-markovian": _run_compare,
    "noise-sweep": _run_noise_sweep,
    "witness": _run_witness,
    "channel-calibration": _run_channel_calibration,
}


# Flags that override a config field, on the subcommands whose type holds it.
_FLAGS = {
    "seed": {"type": int, "help": "sampling seed (overrides the config)"},
    "mode": {"choices": ("analytic", "montecarlo"),
             "help": "evaluation mode (overrides the config)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenometry",
        description="Dephasing-limited frequency metrology simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="INI file; the section named after the subcommand applies")
        p.add_argument("--out", default="out", help="output directory")
        for key, options in _FLAGS.items():
            if hasattr(CONFIG_TYPES[name], key):
                p.add_argument(f"--{key}", default=None, **options)
    return parser


def main(argv=None) -> int:
    # OpenBLAS starts its thread pool when numpy loads, but no command makes a
    # BLAS call, so a second thread would get no work and only spin
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, overrides={
            key: getattr(args, key, None) for key in _FLAGS})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        summary = _HANDLERS[args.command](cfg, out)
    except (ValueError, FitError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "subcommand": args.command,
        "config_sha256": config_hash(cfg, args.command),
    }
    payload.update({key: getattr(cfg, key) for key in _FLAGS if hasattr(cfg, key)})
    payload.update(summary)
    (out / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
