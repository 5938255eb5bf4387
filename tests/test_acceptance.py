"""Acceptance suite: one end-to-end check per shipped claim.

Each test prints a single ``[PASS]``/``[FAIL]`` verdict line (visible with
``pytest -s``) and then asserts, so the suite doubles as a human-readable
checklist.  Tolerances and runtime budgets are pinned in the assertions.
"""

import json
import math
from time import perf_counter

import numpy as np
from scipy.optimize import brentq

from zenometry import (
    GaussianMode,
    Markovian,
    ProbeSpec,
    Quadratic,
    Tabulated,
    TabulatedMode,
    WhiteNoiseGhzParams,
    advantage_crossing,
    closed_form_result,
    evolve_oracle,
    fidelity_bound,
    ghz_density_matrix,
    load_bd_calibration,
    noise_subtract,
    noise_sweep,
    optimal_time,
    overlap_gaussian,
    overlap_numeric,
    parity_expectation_analytic,
    parity_expectation_dm,
    reference_bounds,
    relative_resolution,
    sample_fringe,
    scaling_fit,
    sensitivity_closed_form,
    sensitivity_from_fringe,
    stencil_derivative,
    synthetic_fringe,
    witness_expectation,
)
from zenometry.cli import main

SEED = 20260816

# measured initial-parity visibilities and per-photon Fisher values, N = 1..6
VISIBILITIES = (0.9776, 0.9781, 0.8777, 0.8671, 0.8071, 0.7968)
FISHER_MEASURED = (0.2884, 0.3861, 0.3861, 0.4480, 0.4393, 0.4774)

SQL_FISHER = 1.0 / (2.0 * math.sqrt(math.e))


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    _verdict(f"criterion {num:02d} {name}", ok, detail)


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, 21 if n == 5 else 25)


def test_01_markovian_strategies_tie():
    start = perf_counter()
    rate = 0.8
    model = Markovian(rate)
    worst = 0.0
    for n in range(1, 9):
        expected = 2.0 * math.e * rate / n
        ghz = sensitivity_closed_form(
            ProbeSpec("ghz", n, 1.0), model, optimal_time(model, n))
        product = sensitivity_closed_form(
            ProbeSpec("product", n, 1.0), model, optimal_time(model, 1))
        worst = max(worst,
                    abs(ghz - expected) / expected,
                    abs(product - expected) / expected)
    elapsed = perf_counter() - start
    _report(1, "markovian-equality", worst <= 1e-12 and elapsed < 1.0,
            f"max rel err {worst:.2e} (limit 1e-12), {elapsed:.2f}s (< 1s)")


def test_02_zeno_scaling_slope():
    start = perf_counter()
    model = Quadratic(1.0)
    analytic = []
    sampled = []
    for n in range(1, 9):
        spec = ProbeSpec("ghz", n, 1.0)
        t = optimal_time(model, n)
        analytic.append((n, closed_form_result(spec, model, t).d2omega_t, None))
        data = sample_fringe(spec, model, t, _grid(n), 1_000_000, seed=SEED + n)
        sampled.append((n, sensitivity_from_fringe(data, t).d2omega_t, None))
    slope_analytic = scaling_fit(analytic).slope
    slope_sampled = scaling_fit(sampled).slope
    elapsed = perf_counter() - start
    ok = (abs(slope_analytic + 1.5) <= 1e-9
          and abs(slope_sampled + 1.5) <= 0.05
          and elapsed < 120.0)
    _report(2, "zeno-scaling", ok,
            f"analytic slope {slope_analytic:.12f} (+-1e-9), sampled "
            f"{slope_sampled:.4f} (+-0.05), {elapsed:.1f}s (< 2min)")


def test_03_sql_fisher_bound():
    model = Quadratic(1.0)
    t = optimal_time(model, 1)
    worst = 0.0
    for n in range(1, 7):
        spec = ProbeSpec("product", n, 1.0)
        data = synthetic_fringe(spec, model, t, _grid(1))
        fisher = sensitivity_from_fringe(data, t).fisher_per_photon
        worst = max(worst, abs(fisher - SQL_FISHER), abs(fisher - 0.30327))
    _report(3, "sql-fisher", worst <= 1e-4,
            f"max |fisher - 0.30327| = {worst:.2e} (limit 1e-4)")


def test_04_measured_fisher_plausibility():
    start = perf_counter()
    worst = 0.0
    for n, (v0, measured) in enumerate(zip(VISIBILITIES, FISHER_MEASURED),
                                       start=1):
        predicted = math.sqrt(n) * v0**2 * SQL_FISHER
        worst = max(worst, abs(predicted - measured) / measured)
    elapsed = perf_counter() - start
    _report(4, "fisher-plausibility", worst <= 0.10 and elapsed < 1.0,
            f"max rel err {worst:.4f} (limit 0.10), {elapsed:.2f}s (< 1s)")


def test_05_noise_subtracted_slope():
    start = perf_counter()
    model = Quadratic(1.0)
    points = []
    for n, v0 in enumerate(VISIBILITIES, start=1):
        spec = ProbeSpec("ghz", n, v0)
        t = optimal_time(model, n)
        data = sample_fringe(spec, model, t, _grid(n), 1_000_000,
                             seed=77100 + n)
        data = noise_subtract(data, v0)
        points.append((n, sensitivity_from_fringe(data, t).d2omega_t, None))
    slope = scaling_fit(points).slope
    elapsed = perf_counter() - start
    ok = -1.56 <= slope <= -1.45 and elapsed < 120.0
    _report(5, "noise-subtracted-slope", ok,
            f"slope {slope:.4f} (window [-1.56, -1.45]), {elapsed:.1f}s (< 2min)")


def test_06_oracle_equivalence():
    start = perf_counter()
    rng = np.random.default_rng(SEED)
    table = Tabulated([(0.0, 0.0), (0.6, 0.3), (1.5, 1.4)])
    worst = 0.0
    for draw in range(20):
        n = int(rng.integers(1, 9))
        model = (Markovian(float(rng.uniform(0.2, 1.5))),
                 Quadratic(float(rng.uniform(0.3, 2.0))),
                 table)[draw % 3]
        v = float(rng.uniform(0.7, 1.0))
        omega = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.01, 1.4))
        state = ghz_density_matrix(WhiteNoiseGhzParams(n, v))
        oracle = parity_expectation_dm(evolve_oracle(state, model, omega, t))
        spec = ProbeSpec("ghz", n, v ** (n / 2.0))
        analytic = parity_expectation_analytic(spec, model, omega, t)
        worst = max(worst, abs(oracle - analytic))
    elapsed = perf_counter() - start
    _report(6, "oracle-equivalence", worst <= 1e-12 and elapsed < 30.0,
            f"max |oracle - analytic| = {worst:.2e} over 20 draws "
            f"(limit 1e-12), {elapsed:.1f}s (< 30s)")


def test_07_stencil_order():
    rng = np.random.default_rng(SEED)
    worst_quartic = 0.0
    h = 0.1
    for _ in range(10):
        poly = np.polynomial.Polynomial(rng.uniform(-2.0, 2.0, size=5))
        x0 = float(rng.uniform(-1.0, 1.0))
        samples = [poly(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
        worst_quartic = max(worst_quartic,
                            abs(stencil_derivative(samples, h)
                                - poly.deriv()(x0)))
    orders = []
    for m in (2, 3, 6):
        def err(step: float) -> float:
            theta = 0.4
            samples = [math.cos(m * (theta + k * step))
                       for k in (-2, -1, 0, 1, 2)]
            exact = -m * math.sin(m * theta)
            return abs(stencil_derivative(samples, step) - exact)
        orders.append(math.log2(err(0.02) / err(0.01)))
    ok = worst_quartic <= 1e-12 and min(orders) >= 3.9
    _report(7, "stencil-order", ok,
            f"quartic err {worst_quartic:.2e} (limit 1e-12), "
            f"orders {[f'{o:.2f}' for o in orders]} (limit 3.9)")


def test_08_witness_arithmetic():
    worst = 0.0
    for n in range(2, 7):
        state = ghz_density_matrix(WhiteNoiseGhzParams(n, 1.0))
        w = witness_expectation(state)
        worst = max(worst, abs(w + 1.0), abs(fidelity_bound(w) - 1.0))
    bound = fidelity_bound(-0.7052)
    ok = worst <= 1e-12 and abs(bound - 0.8526) <= 1e-4
    _report(8, "witness-arithmetic", ok,
            f"ideal-GHZ err {worst:.2e} (limit 1e-12), "
            f"bound(-0.7052) = {bound:.6f} (0.8526 +- 1e-4)")


def test_09_bd_calibration():
    mode = GaussianMode(1.05)
    worst_residual = 0.0
    for row in load_bd_calibration():
        predicted = overlap_gaussian(row.total_separation, mode)
        worst_residual = max(worst_residual,
                             abs(predicted - row.measured_visibility))
    profile = TabulatedMode.gaussian(mode)
    worst_quadrature = 0.0
    for x0 in np.linspace(0.0, 3.0 * mode.waist, 40):
        worst_quadrature = max(
            worst_quadrature,
            abs(overlap_numeric(profile, float(x0))
                - overlap_gaussian(float(x0), mode)))
    ok = worst_residual <= 0.05 and worst_quadrature <= 1e-3
    _report(9, "bd-calibration", ok,
            f"max |predicted - measured| = {worst_residual:.4f} (limit 0.05), "
            f"quadrature err {worst_quadrature:.2e} (limit 1e-3)")


def test_10_relative_resolution():
    test_channel = Quadratic(1.0)
    reference = Markovian(math.exp(-0.5))
    worst = 0.0
    for n in range(1, 7):
        r2 = relative_resolution(n, test_channel, reference)
        worst = max(worst, abs(r2 - math.sqrt(n)) / math.sqrt(n))
    exactly_one = relative_resolution(1, test_channel, reference) == 1.0
    _report(10, "relative-resolution", worst <= 1e-12 and exactly_one,
            f"max rel err vs sqrt(N) = {worst:.2e} (limit 1e-12), "
            f"N=1 exact: {exactly_one}")


def test_11_noise_sweep_crossing():
    start = perf_counter()
    ns = list(range(1, 1001))
    ideal = noise_sweep(1.0, ns)
    zeno = reference_bounds(ns, 1.0).zl
    ideal_exact = ideal.d2omega_t_ghz == zeno

    def margin(x: float) -> float:
        return 0.5 * math.log(x) + x * math.log(0.99)

    root = brentq(margin, -0.5 / math.log(0.99), 10_000.0)
    n_star = advantage_crossing(0.99)
    crossing_ok = n_star is not None and abs(root - n_star) <= 1.0

    lost = True
    for v in (0.9, 0.95, 0.99):
        sweep = noise_sweep(v, ns)
        boundary = sweep.crossing
        lost = lost and boundary is not None and all(
            not beats for n, beats in zip(ns, sweep.beats_sql, strict=True)
            if n > boundary)
    elapsed = perf_counter() - start
    ok = ideal_exact and crossing_ok and lost and elapsed < 5.0
    _report(11, "noise-sweep", ok,
            f"v=1 exact: {ideal_exact}, N*(0.99) = {n_star} vs root "
            f"{root:.2f} (+-1), advantage lost beyond N*: {lost}, "
            f"{elapsed:.1f}s (< 5s)")


def test_12_cli_determinism(tmp_path):
    configs = {
        "fringe": ("[fringe]\nn_values = 1, 2\nmode = montecarlo\nseed = 7\n"
                   "shots_per_setting = 20000\n"),
        "scaling": ("[scaling]\nn_values = 1, 2, 3\nmode = montecarlo\n"
                    "seed = 7\nshots_per_setting = 20000\ntrials = 100\n"),
        "compare-markovian": ("[compare-markovian]\nn_values = 1, 2\n"
                              "mode = montecarlo\nseed = 7\n"
                              "shots_per_setting = 20000\ntrials = 100\n"),
    }
    mismatches = []
    for command, text in configs.items():
        ini = tmp_path / f"{command}.ini"
        ini.write_text(text)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}"
            rc = main([command, "--config", str(ini), "--out", str(out)])
            assert rc == 0, f"{command} run {run} exited {rc}"
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.iterdir())})
        if outputs[0] != outputs[1]:
            mismatches.append(command)
        if not any(name.endswith(".csv") for name in outputs[0]):
            mismatches.append(f"{command} (no CSV written)")
    summary = json.loads(
        (tmp_path / "scaling-a" / "summary.json").read_text())
    ok = not mismatches and summary["seed"] == 7
    _report(12, "cli-determinism", ok,
            "reruns byte-identical for fringe, scaling, compare-markovian"
            if ok else f"mismatches: {mismatches}")


# The Markovian-to-Zeno crossover through one tabulated channel (checks beside
# the numbered criteria).  Ornstein-Uhlenbeck dephasing,
# gamma(t) = c tau^2 (t/tau - 1 + exp(-t/tau)), is c t^2 / 2 for t << tau and
# c tau (t - tau) for t >> tau, so a GHZ probe at its own optimum goes from the
# Markovian tie, d2omegaT ~ 1/N, toward the Zeno N^-3/2 as t_opt falls below
# tau.  The knots are log-spaced, so each segment spans the fraction
# OU_SPACING of its start.  gamma is convex with t gamma'' <= gamma', so a
# segment's slope is gamma' to within that fraction, which bounds the relative
# error of the table's optimal time; at the optimum, where 2 N t gamma' = 1,
# the interpolation raises 2 N gamma, and so ln d2omegaT, by at most
# OU_SPACING^2 / 8.
OU_C, OU_TAU = 1.0, 0.05
OU_KNOTS = np.geomspace(1e-5, 400.0, 4000)
OU_SPACING = float(OU_KNOTS[1] / OU_KNOTS[0]) - 1.0
OU_N = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)


def _ou_gamma(t, tau=OU_TAU):
    x = np.asarray(t, dtype=float) / tau
    return OU_C * tau**2 * (x + np.expm1(-x))


def _ou_table(tau=OU_TAU, knots=OU_KNOTS) -> Tabulated:
    return Tabulated(zip(knots.tolist(), _ou_gamma(knots, tau).tolist()))


def _ou_slopes(table: Tabulated) -> np.ndarray:
    """Log-log slopes of the GHZ d2omegaT between successive OU_N, each N at
    its own optimum."""
    d2 = [sensitivity_closed_form(ProbeSpec("ghz", n, 1.0), table,
                                  table.optimal_time(n)) for n in OU_N]
    return np.diff(np.log(d2)) / np.diff(np.log(OU_N))


def _knot_tolerance(knots: np.ndarray) -> float:
    """Each end's ln d2omegaT is off by at most spacing^2 / 8, with the same
    sign, so a slope between successive OU_N is off by at most that over the
    smallest step in ln N."""
    spacing = float(knots[1] / knots[0]) - 1.0
    return spacing**2 / 8.0 / float(np.min(np.diff(np.log(OU_N))))


def test_crossover_slope_runs_from_markovian_to_zeno():
    start = perf_counter()
    slopes = _ou_slopes(_ou_table())
    tol = _knot_tolerance(OU_KNOTS)
    inside = bool(np.all((-1.5 - tol <= slopes) & (slopes <= -1.0 + tol)))
    falling = bool(np.all(np.diff(slopes) < -2.0 * tol))
    elapsed = perf_counter() - start
    _verdict("crossover slope", inside and falling and elapsed < 2.0,
             f"local slopes {slopes[0]:.4f} (N = 1..2) to {slopes[-1]:.4f} "
             f"(N = 512..1000), in [-1.5, -1] +- {tol:.1e}: {inside}, "
             f"falling: {falling}, {elapsed:.2f}s (< 2s)")


def test_crossover_optimal_time_matches_a_dense_scan():
    start = perf_counter()
    table = _ou_table()
    # relative spacing 1e-5, far below the knots'
    t = np.geomspace(OU_KNOTS[0], OU_KNOTS[-1],
                     round(math.log(OU_KNOTS[-1] / OU_KNOTS[0]) / 1e-5) + 1)
    scan_spacing = float(t[1] / t[0]) - 1.0
    log_t, gamma = np.log(t), _ou_gamma(t)
    worst = 0.0
    for n in OU_N:
        # argmax of t exp(-2 N gamma(t)), taken on its logarithm
        best = float(t[np.argmax(log_t - 2.0 * n * gamma)])
        worst = max(worst, abs(table.optimal_time(n) / best - 1.0))
    tol = OU_SPACING + scan_spacing
    elapsed = perf_counter() - start
    _verdict("crossover optimal time", worst <= tol and elapsed < 2.0,
             f"max relative gap to the scan {worst:.1e} (limit {tol:.1e}) "
             f"over N = {OU_N[0]}..{OU_N[-1]}, {elapsed:.2f}s (< 2s)")


def test_crossover_through_the_cli_tabulated_route(tmp_path):
    # The same table, written as a t,gamma CSV by repr (so it loads back
    # exactly) and run through `scaling --mode analytic`: the CLI's only
    # route to the tabulated model.
    start = perf_counter()
    table = _ou_table()
    csv = tmp_path / "ou.csv"
    csv.write_text("t,gamma\n" + "".join(f"{t!r},{g!r}\n"
                                         for t, g in table.samples))
    ns = (1, 2, 4, 8, 16)
    ini = tmp_path / "scaling.ini"
    ini.write_text(f"[scaling]\nmode = analytic\nmodel_kind = tabulated\n"
                   f"model_csv = {csv}\nn_values = {', '.join(map(str, ns))}\n")
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(ini), "--out", str(out)]) == 0
    lines = [line for line in (out / "resolution_raw.csv").read_text()
             .splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    got = [dict(zip(header, line.split(","))) for line in lines[1:]]
    expected = [repr(sensitivity_closed_form(ProbeSpec("ghz", n, 1.0), table,
                                             table.optimal_time(n)))
                for n in ns]
    exact = ([int(r["N"]) for r in got] == list(ns)
             and [r["d2omegaT"] for r in got] == expected)
    slope = json.loads((out / "summary.json").read_text())["slope_raw"]["slope"]
    elapsed = perf_counter() - start
    _verdict("crossover via the CLI",
             exact and -1.5 <= slope <= -1.0 and elapsed < 5.0,
             f"d2omegaT equal to the closed form by repr: {exact}, slope_raw "
             f"{slope:.4f} in [-1.5, -1], {elapsed:.2f}s (< 5s)")


# The two ends of the crossover, each on knots log-spaced in t / tau over a
# range that holds every OU_N's optimum at both taus.  By the envelope
# theorem the local slope d ln d2omegaT / d ln N at the optimum is
# -2 + 2 N gamma(t_opt).  With u = t_opt / tau and k = N c tau^2, the optimum
# 2 N t gamma'(t) = 1 reads 2 k u (1 - e^-u) = 1, and 2 N gamma(t_opt) is
# g(u) = 1 / (1 - e^-u) - 1 / u, which rises from 1/2 to 1 with u.  u falls
# as N rises, so the slope falls with N, and a slope between two Ns lies
# between their local slopes.
OU_LIMIT_X = np.geomspace(1e-7, 1e9, 4000)


def test_crossover_slope_tends_to_markovian_as_tau_shrinks():
    # tau -> 0, u -> oo: 1 - g(u) <= 1 / u = 2 k (1 - e^-u) <= 2 k, so each
    # slope lies in [-1 - 2 N c tau^2, -1], N the larger of its pair.
    start = perf_counter()
    tau = 1e-4
    slopes = _ou_slopes(_ou_table(tau, tau * OU_LIMIT_X))
    knots = _knot_tolerance(OU_LIMIT_X)
    lower = -1.0 - 2.0 * np.array(OU_N[1:]) * OU_C * tau**2 - knots
    ok = bool(np.all((lower <= slopes) & (slopes <= -1.0 + knots)))
    elapsed = perf_counter() - start
    _verdict("crossover Markovian limit", ok and elapsed < 2.0,
             f"tau = {tau:g}: slopes {slopes[0] + 1.0:.1e} (N = 1..2) to "
             f"{slopes[-1] + 1.0:.1e} (N = 512..1000) from -1, in "
             f"[{lower[-1] + 1.0:.1e}, {knots:.1e}]: {ok}, {elapsed:.2f}s (< 2s)")


def test_crossover_slope_tends_to_zeno_as_tau_grows():
    # tau -> oo, u -> 0: 1/2 <= g(u) <= 1/2 + u / 12 (g = 1/2 + u/12 - u^3/720
    # + ...), and u <= u0 (1 + u0) with u0 = (2 k)^-1/2 while u0 <= 1/2, so
    # each slope lies in [-3/2, -3/2 + u0 (1 + u0) / 12], N the smaller of
    # its pair.
    start = perf_counter()
    tau = 1e3
    slopes = _ou_slopes(_ou_table(tau, tau * OU_LIMIT_X))
    knots = _knot_tolerance(OU_LIMIT_X)
    u0 = 1.0 / np.sqrt(2.0 * np.array(OU_N[:-1]) * OU_C * tau**2)
    upper = -1.5 + u0 * (1.0 + u0) / 12.0 + knots
    ok = bool(np.all((-1.5 - knots <= slopes) & (slopes <= upper)))
    elapsed = perf_counter() - start
    _verdict("crossover Zeno limit", ok and elapsed < 2.0,
             f"tau = {tau:g}: slopes {slopes[0] + 1.5:.1e} (N = 1..2) to "
             f"{slopes[-1] + 1.5:.1e} (N = 512..1000) from -3/2, in "
             f"[{-knots:.1e}, {upper[0] + 1.5:.1e}]: {ok}, {elapsed:.2f}s (< 2s)")
