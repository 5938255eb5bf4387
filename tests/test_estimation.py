"""Optimal times, closed forms, fitting, the stencil, and error bars."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zenometry.estimation as estimation
from zenometry import (
    FitError,
    FringeDataset,
    Markovian,
    ProbeSpec,
    Quadratic,
    Tabulated,
    apply_monte_carlo_errors,
    closed_form_result,
    fit_fringe,
    monte_carlo_errorbar,
    noise_subtract,
    optimal_time,
    optimal_time_for_probe,
    sample_fringe,
    sensitivity_closed_form,
    sensitivity_from_fringe,
    stencil_derivative,
    synthetic_fringe,
    working_point,
)
from zenometry.fringes import estimates_from_counts
from zenometry.rng import MONTE_CARLO_TRIALS, substream


def planted_fringe(m, amplitude, phase, points=25, stderr=0.0):
    theta = np.linspace(0.0, math.pi, points)
    values = amplitude * np.cos(m * theta + phase)
    zeros = np.zeros(points, dtype=np.int64)
    return FringeDataset(
        strategy="ghz", n_qubits=m, interrogation_time=0.25, visibility=None,
        theta=theta, n_plus=zeros, n_total=zeros, estimate=values,
        stderr=np.full(points, stderr))


def gauss_newton_fit(data, max_iterations=100, tolerance=1e-10):
    """Reference fit of ``A cos(m theta + phi)``: Gauss-Newton iteration from
    the largest |estimate| and the projection phase, canonicalized to
    ``A >= 0`` and ``phi`` in (-pi, pi]."""
    mask = data.usable
    theta = data.theta[mask]
    y = data.estimate[mask]
    se = data.stderr[mask]
    m = data.fringe_frequency
    w = 1.0 / se**2 if np.all(se > 0.0) else np.ones(theta.size)
    amplitude = float(np.max(np.abs(y)))
    phase = math.atan2(-float(np.sum(y * np.sin(m * theta))),
                       float(np.sum(y * np.cos(m * theta))))
    for _ in range(max_iterations):
        arg = m * theta + phase
        r = y - amplitude * np.cos(arg)
        jac = np.column_stack((np.cos(arg), -amplitude * np.sin(arg)))
        jw = jac * w[:, None]
        step = np.linalg.solve(jac.T @ jw, jw.T @ r)
        amplitude += float(step[0])
        phase += float(step[1])
        if float(np.linalg.norm(step)) < tolerance:
            break
    else:
        raise AssertionError("reference fit did not converge")
    if amplitude < 0.0:
        amplitude = -amplitude
        phase += math.pi
    phase = math.remainder(phase, 2.0 * math.pi)
    if phase <= -math.pi:
        phase = math.pi
    return amplitude, phase


def scalar_read_out(replica, t):
    """Reference working-point read-out of one fringe, one rule at a time,
    through :func:`fit_fringe`.  ``t`` and the grid must be valid.  Returns
    ``(amplitude, d<P>/d omega, d2omega_t)``; raises where the row fails."""
    m = replica.fringe_frequency
    theta_w = math.pi / (2.0 * m)
    fit = fit_fringe(replica)
    arg = m * theta_w + fit.phase
    expectation = fit.amplitude * math.cos(arg)
    domega = -m * fit.amplitude * math.sin(arg) * t
    if abs(domega) < 1e-9:
        raise ValueError("slope at the working point is degenerate")
    variance = 1.0 - expectation * expectation
    if variance <= 0.0:
        raise ValueError("projection-noise variance vanished at the working "
                         "point")
    repetitions = 1 if replica.strategy == "ghz" else replica.n_qubits
    return fit.amplitude, domega, t * variance / (repetitions * domega * domega)


def bootstrap_reference(data, t, trials, seed, messages=None):
    """Per-trial bootstrap: one validated replica dataset per trial, run
    through :func:`scalar_read_out`.  Returns the failure count and the
    spreads as ``(amplitude, derivative, d2omega_t, fisher)``; counts each
    failure's error message into the ``messages`` Counter if one is given."""
    n_minus = data.n_total - data.n_plus
    rows = []
    failed = 0
    for trial in range(trials):
        gen = substream(seed, MONTE_CARLO_TRIALS, trial)
        plus = gen.poisson(data.n_plus)
        total = plus + gen.poisson(n_minus)
        estimate, stderr = estimates_from_counts(plus, total)
        if data.noise_divisor is not None:
            estimate = np.clip(estimate / data.noise_divisor, -1.0, 1.0)
            stderr = stderr / data.noise_divisor
        replica = data.replace(n_plus=plus, n_total=total, estimate=estimate,
                               stderr=stderr)
        try:
            amplitude, domega, d2 = scalar_read_out(replica, t)
        except (ValueError, FitError) as exc:
            failed += 1
            if messages is not None:
                messages[str(exc)] += 1
            continue
        rows.append((amplitude, domega, d2, 1.0 / (data.n_qubits * d2)))
    return failed, [float(np.std(col, ddof=1)) for col in zip(*rows)]


def failing_fringes():
    """One fringe per row-level rejection of the read-out, in check order:
    ``(dataset, error type, message)`` with the label as id."""
    base = planted_fringe(2, 0.8, 0.0)

    def only(keep):
        estimate = np.full(base.theta.size, math.nan)
        estimate[keep] = base.estimate[keep]
        return base.replace(estimate=estimate)
    # every 2 theta sits at pi/4 modulo pi: the sine and cosine columns are
    # collinear
    collinear = planted_fringe(2, 0.8, 0.0, points=5).replace(
        theta=math.pi / 8.0 + np.arange(5) * math.pi / 2.0)
    # A sin(2 theta) turns at the working point pi/4
    flat = planted_fringe(2, 0.8, -math.pi / 2.0)
    # clipping a fringe of amplitude 1.3 leaves a fitted expectation above 1
    saturated = base.replace(estimate=np.clip(
        1.3 * np.cos(2.0 * base.theta - math.pi / 2.0 + 0.2), -1.0, 1.0))
    cases = [
        ("four points", only(slice(4, 8)), ValueError,
         "need at least 5 usable points to fit"),
        ("short span", only(slice(0, 6)), ValueError,
         "usable points must span at least half a period"),
        ("collinear", collinear, FitError, "normal equations are singular"),
        ("zero amplitude", planted_fringe(2, 0.0, 0.0), FitError,
         "covariance is singular at the solution"),
        ("flat", flat, ValueError, "slope at the working point is degenerate"),
        ("saturated", saturated, ValueError,
         "projection-noise variance vanished at the working point"),
    ]
    assert len(cases) == len(estimation._FAILURES) - 1
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestOptimalTime:
    def test_quadratic_closed_form(self):
        assert optimal_time(Quadratic(1.0), 6) == pytest.approx(
            math.sqrt(1.0 / 24.0), abs=1e-12)
        assert optimal_time(Quadratic(1.0), 1) == 0.5

    def test_markovian_closed_form(self):
        rate = math.exp(-0.5)
        assert optimal_time(Markovian(rate), 2) == pytest.approx(
            math.exp(0.5) / 4.0, abs=1e-12)

    def test_closed_forms_are_exact(self):
        for n in range(1, 13):
            assert optimal_time(Markovian(0.6), n) == 1.0 / (2.0 * n * 0.6)
            assert optimal_time(Quadratic(1.3), n) \
                == math.sqrt(1.0 / (4.0 * n * 1.3))

    def test_tabulated_by_bisection(self):
        # constant unit slope: the condition 2 N t = 1 gives t = 1/(2N)
        tab = Tabulated([(0.0, 0.0), (2.0, 2.0)])
        assert optimal_time(tab, 2) == 0.25
        # piecewise table around a quadratic: root near the analytic optimum
        ts = np.linspace(0.0, 1.0, 2001)
        tab2 = Tabulated(list(zip(ts, ts**2)))
        assert optimal_time(tab2, 4) == pytest.approx(0.25, abs=1e-3)

    def test_tabulated_takes_the_global_optimum(self):
        # 2 N t dgamma/dt = 1 holds at t = 1/4 and, across the slope jump, at
        # t = 1; d2omega_t is e at the first root and e**2 / 4 at the second.
        tab = Tabulated([(0.0, 0.0), (0.5, 0.5), (1.0, 0.5), (2.0, 1.0)])
        assert optimal_time(tab, 2) == 1.0
        spec = ProbeSpec("ghz", 2, 1.0)
        assert sensitivity_closed_form(spec, tab, 1.0) == pytest.approx(
            math.exp(2.0) / 4.0, rel=1e-12)
        assert sensitivity_closed_form(spec, tab, 0.25) == pytest.approx(
            math.e, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(0.01, 1.0),
                                    st.just(0.0) | st.floats(0.0, 3.0)),
                          min_size=1, max_size=6),
           n=st.integers(1, 8))
    def test_tabulated_optimum_beats_every_other_time(self, steps, n):
        times = np.cumsum([0.0] + [dt for dt, _ in steps])
        gammas = np.cumsum([0.0] + [dt * s for dt, s in steps])
        tab = Tabulated(list(zip(times, gammas)))
        slopes = np.diff(gammas) / np.diff(times)
        assume(2.0 * n * times[-1] * slopes[-1] >= 1.0)
        spec = ProbeSpec("ghz", n, 1.0)
        best = sensitivity_closed_form(spec, tab, optimal_time(tab, n))
        with np.errstate(divide="ignore"):
            roots = np.clip(1.0 / (2.0 * n * slopes), times[:-1], times[1:])
        grid = np.linspace(0.0, times[-1], 1001)[1:]
        for t in np.concatenate([times[1:], roots, grid]):
            assert best <= sensitivity_closed_form(spec, tab, t) * (1 + 1e-12)

    def test_tabulated_root_must_be_bracketed(self):
        lazy = Tabulated([(0.0, 0.0), (1.0, 1e-6)])
        with pytest.raises(ValueError, match="bracketed"):
            optimal_time(lazy, 2)

    def test_zero_rate_has_no_optimum(self):
        with pytest.raises(ValueError):
            optimal_time(Markovian(0.0), 2)
        with pytest.raises(ValueError):
            optimal_time(Quadratic(0.0), 2)

    def test_optimum_is_a_minimum(self):
        for model, n in ((Quadratic(1.3), 3), (Markovian(0.6), 4)):
            spec = ProbeSpec("ghz", n, 1.0)
            t_star = optimal_time(model, n)
            best = sensitivity_closed_form(spec, model, t_star)
            for factor in (0.5, 0.8, 1.2, 2.0):
                assert best <= sensitivity_closed_form(spec, model,
                                                       factor * t_star)

    def test_probe_variant_uses_single_qubit_optimum(self):
        model = Quadratic(1.0)
        assert optimal_time_for_probe(ProbeSpec("product", 6, 1.0), model) \
            == optimal_time(model, 1)
        assert optimal_time_for_probe(ProbeSpec("ghz", 6, 1.0), model) \
            == optimal_time(model, 6)


class TestClosedForms:
    def test_markovian_strategies_tie(self):
        rate = 0.8
        model = Markovian(rate)
        for n in range(1, 9):
            ghz = sensitivity_closed_form(
                ProbeSpec("ghz", n, 1.0), model, 1.0 / (2.0 * n * rate))
            product = sensitivity_closed_form(
                ProbeSpec("product", n, 1.0), model, 1.0 / (2.0 * rate))
            expected = 2.0 * math.e * rate / n
            assert ghz == pytest.approx(expected, rel=1e-12)
            assert product == pytest.approx(expected, rel=1e-12)

    def test_zeno_closed_forms(self):
        model = Quadratic(1.0)
        for n in (1, 2, 4, 6):
            t_ghz = optimal_time(model, n)
            ghz = sensitivity_closed_form(ProbeSpec("ghz", n, 1.0), model, t_ghz)
            assert ghz == pytest.approx(2.0 * math.sqrt(math.e) / n**1.5,
                                        rel=1e-12)
            t_one = optimal_time(model, 1)
            product = sensitivity_closed_form(
                ProbeSpec("product", n, 1.0), model, t_one)
            assert product == pytest.approx(2.0 * math.sqrt(math.e) / n,
                                            rel=1e-12)

    def test_visibility_costs_squared(self):
        model = Quadratic(1.0)
        t = optimal_time(model, 2)
        ideal = sensitivity_closed_form(ProbeSpec("ghz", 2, 1.0), model, t)
        dimmed = sensitivity_closed_form(ProbeSpec("ghz", 2, 0.9781), model, t)
        assert dimmed == pytest.approx(ideal / 0.9781**2, rel=1e-12)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_closed_form(ProbeSpec("ghz", 2, 1.0), Quadratic(1.0), 0.0)

    def test_fisher_identity_exact(self):
        model = Quadratic(1.0)
        for n in (1, 3, 6):
            spec = ProbeSpec("ghz", n, 0.9)
            result = closed_form_result(spec, model, optimal_time(model, n))
            assert result.fisher_per_photon == 1.0 / (n * result.d2omega_t)
            assert result.fisher_per_photon * n * result.d2omega_t \
                == pytest.approx(1.0, rel=1e-15)

    def test_closed_form_result_is_self_consistent(self):
        model = Quadratic(0.7)
        for strategy, repetitions in (("ghz", 1), ("product", 4)):
            spec = ProbeSpec(strategy, 4, 0.95)
            t = optimal_time_for_probe(spec, model)
            r = closed_form_result(spec, model, t)
            rebuilt = t * (1.0 - r.expectation_at_working_point**2) / (
                repetitions * r.derivative_omega**2)
            assert rebuilt == pytest.approx(r.d2omega_t, rel=1e-12)


class TestFit:
    def test_exact_recovery(self):
        data = planted_fringe(3, 0.8, 0.3)
        fit = fit_fringe(data)
        assert fit.amplitude == pytest.approx(0.8, abs=1e-10)
        assert fit.phase == pytest.approx(0.3, abs=1e-10)
        assert not fit.weighted

    def test_canonical_parameters(self):
        data = planted_fringe(2, 0.6, 2.9)
        fit = fit_fringe(data)
        assert fit.amplitude >= 0.0
        assert -math.pi < fit.phase <= math.pi
        assert fit.amplitude == pytest.approx(0.6, abs=1e-9)
        assert fit.phase == pytest.approx(2.9, abs=1e-9)

    def test_statistical_recovery_with_errors(self):
        spec = ProbeSpec("ghz", 6, 0.7968)
        data = sample_fringe(spec, Quadratic(1.0), 0.0,
                             np.linspace(0.0, math.pi, 25), 1_000_000, seed=21)
        fit = fit_fringe(data)
        assert fit.weighted
        assert fit.amplitude == pytest.approx(0.7968, abs=0.002)
        assert 0.0 < fit.amplitude_stderr < 0.002

    def test_missing_points_are_ignored(self):
        data = planted_fringe(2, 0.7, 0.1)
        est = np.array(data.estimate)
        est[3] = math.nan
        patched = data.replace(estimate=est)
        fit = fit_fringe(patched)
        assert fit.amplitude == pytest.approx(0.7, abs=1e-9)

    def test_too_few_points_rejected(self):
        data = planted_fringe(2, 0.7, 0.1, points=25)
        est = np.full(25, math.nan)
        est[:4] = data.estimate[:4]
        with pytest.raises(ValueError, match="5 usable"):
            fit_fringe(data.replace(estimate=est))

    def test_span_requirement(self):
        theta = np.linspace(0.0, 0.3, 9)  # far less than half a period of m=1
        zeros = np.zeros(9, dtype=np.int64)
        data = FringeDataset(
            strategy="ghz", n_qubits=1, interrogation_time=0.2,
            visibility=None, theta=theta, n_plus=zeros, n_total=zeros,
            estimate=0.5 * np.cos(theta), stderr=np.zeros(9))
        with pytest.raises(ValueError, match="half a period"):
            fit_fringe(data)

    def test_closed_form_matches_gauss_newton(self):
        model = Quadratic(1.0)
        grid = np.linspace(0.0, math.pi, 25)
        sampled = [
            sample_fringe(ProbeSpec("ghz", n, 0.9), model,
                          optimal_time(model, n), grid, 1_000_000, seed=n)
            for n in range(1, 7)
        ]
        planted = [planted_fringe(m, a, p) for m, a, p in
                   ((1, 0.3, -2.0), (2, 0.6, 2.9), (4, 0.9, 0.7),
                    (6, 0.05, -0.4))]
        for data in sampled + planted:
            fit = fit_fringe(data)
            assert fit.weighted == (data.stderr[0] > 0.0)
            assert fit.iterations == 1
            amplitude, phase = gauss_newton_fit(data)
            assert fit.amplitude == pytest.approx(amplitude, abs=1e-12)
            assert fit.phase == pytest.approx(phase, abs=1e-12)

    def test_all_zero_fringe_has_singular_covariance(self):
        with pytest.raises(FitError, match="covariance is singular"):
            fit_fringe(planted_fringe(3, 0.0, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(amplitude=st.floats(0.01, 1.0),
           phase=st.floats(-math.pi, math.pi, exclude_min=True),
           m=st.integers(1, 8))
    def test_recovers_planted_fringe(self, amplitude, phase, m):
        fit = fit_fringe(planted_fringe(m, amplitude, phase, points=4 * m + 1))
        assert fit.amplitude >= 0.0
        assert -math.pi < fit.phase <= math.pi
        assert fit.amplitude == pytest.approx(amplitude, abs=1e-9)
        assert abs(math.remainder(fit.phase - phase, 2.0 * math.pi)) <= 1e-9


class TestStencil:
    def test_exact_through_degree_four(self):
        rng = np.random.default_rng(42)
        h = 0.1
        for _ in range(20):
            coeffs = rng.uniform(-2.0, 2.0, size=5)
            poly = np.polynomial.Polynomial(coeffs)
            x0 = float(rng.uniform(-1.0, 1.0))
            samples = [poly(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
            assert stencil_derivative(samples, h) == pytest.approx(
                poly.deriv()(x0), abs=1e-12)

    def test_truncation_bound_on_cosine(self):
        h = math.pi / 24.0
        x0 = math.pi / 4.0
        samples = [math.cos(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
        err = abs(stencil_derivative(samples, h) - (-math.sin(x0)))
        assert err <= h**4 / 30.0

    def test_fourth_order_convergence(self):
        x0 = 0.3

        def err(h):
            samples = [math.sin(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
            return abs(stencil_derivative(samples, h) - math.cos(x0))

        order = math.log2(err(0.1) / err(0.05))
        assert order >= 3.9

    def test_validation(self):
        with pytest.raises(ValueError):
            stencil_derivative([1.0, 2.0, 3.0, 4.0], 0.1)
        with pytest.raises(ValueError):
            stencil_derivative([1.0, 2.0, math.nan, 4.0, 5.0], 0.1)
        with pytest.raises(ValueError):
            stencil_derivative([1.0, 2.0, 3.0, 4.0, 5.0], 0.0)


class TestPipeline:
    def test_working_point(self):
        assert working_point(1) == math.pi / 2.0
        assert working_point(6) == math.pi / 12.0
        with pytest.raises(ValueError):
            working_point(0)

    def test_fit_route_matches_closed_form(self):
        model = Quadratic(1.0)
        for strategy in ("ghz", "product"):
            for n in (1, 2, 4, 6):
                spec = ProbeSpec(strategy, n, 1.0)
                t = optimal_time_for_probe(spec, model)
                grid = np.linspace(0.0, math.pi, 20 * spec.fringe_frequency + 5)
                data = synthetic_fringe(spec, model, t, grid)
                result = sensitivity_from_fringe(data, t)
                assert result.d2omega_t == pytest.approx(
                    sensitivity_closed_form(spec, model, t), rel=1e-9)

    def test_stencil_route_within_truncation_budget(self):
        # the five-point slope of the noise-free fringe at the working point
        # agrees with the fit route's slope within the stencil's truncation
        model = Quadratic(1.0)
        n = 4
        spec = ProbeSpec("ghz", n, 1.0)
        t = optimal_time(model, n)
        grid = np.linspace(0.0, math.pi, 25)  # h = pi/24, working point on node
        data = synthetic_fringe(spec, model, t, grid)
        h = math.pi / 24.0
        slope = stencil_derivative(data.estimate[1:6], h)
        amplitude = math.exp(-n * model.gamma_at(t))
        slope_budget = h**4 * amplitude * n**5 / 30.0
        assert abs(slope - (-n * amplitude)) <= slope_budget * 1.01
        fitted = sensitivity_from_fringe(data, t).derivative_omega / t
        assert abs(slope - fitted) <= slope_budget * 1.01

    def test_product_repetition_bookkeeping(self):
        # N single-qubit fringes: variance per total time divides by N
        model = Quadratic(1.0)
        t = optimal_time(model, 1)
        grid = np.linspace(0.0, math.pi, 25)
        single = sensitivity_from_fringe(
            synthetic_fringe(ProbeSpec("product", 1, 1.0), model, t, grid), t)
        multi = sensitivity_from_fringe(
            synthetic_fringe(ProbeSpec("product", 5, 1.0), model, t, grid), t)
        assert multi.d2omega_t == pytest.approx(single.d2omega_t / 5.0,
                                                rel=1e-12)

    def test_working_point_must_be_covered(self):
        model = Quadratic(1.0)
        spec = ProbeSpec("ghz", 2, 1.0)
        theta = np.linspace(1.0, math.pi, 30)  # misses pi/4
        data = synthetic_fringe(spec, model, 0.25, theta)
        with pytest.raises(ValueError, match="working point"):
            sensitivity_from_fringe(data, 0.25)

    def test_degenerate_slope_rejected(self):
        # a nearly dark fringe: the fit finds its amplitude, but the slope
        # d<P>/d omega stays below 1e-9
        spec = ProbeSpec("ghz", 2, 1e-10)
        data = synthetic_fringe(spec, Quadratic(1.0), 0.25,
                                np.linspace(0.0, math.pi, 25))
        assert fit_fringe(data).amplitude > 0.0
        with pytest.raises(ValueError, match="degenerate"):
            sensitivity_from_fringe(data, 0.25)

    def test_time_must_be_positive(self):
        data = planted_fringe(2, 0.8, 0.0)
        with pytest.raises(ValueError):
            sensitivity_from_fringe(data, 0.0)

    @pytest.mark.parametrize("data, kind, message", failing_fringes())
    def test_each_rejection_raises_its_error(self, data, kind, message):
        with pytest.raises(kind) as info:
            sensitivity_from_fringe(data, 0.25)
        assert type(info.value) is kind
        assert str(info.value) == message


class TestMonteCarlo:
    @staticmethod
    def ideal_dataset(n=2, shots=1_000_000, seed=13):
        model = Quadratic(1.0)
        spec = ProbeSpec("ghz", n, 1.0)
        t = optimal_time(model, n)
        grid = np.linspace(0.0, math.pi, 25)
        return sample_fringe(spec, model, t, grid, shots, seed=seed), t

    def test_deterministic(self):
        data, t = self.ideal_dataset()
        a = monte_carlo_errorbar(data, t, 150, seed=99)
        b = monte_carlo_errorbar(data, t, 150, seed=99)
        assert a == b
        c = monte_carlo_errorbar(data, t, 150, seed=100)
        assert a != c

    def test_scale_of_errors(self):
        data, t = self.ideal_dataset()
        errors = monte_carlo_errorbar(data, t, 1000, seed=3)
        assert errors.fisher <= 0.005
        assert errors.failed_trials == 0
        assert errors.amplitude > 0.0

    def test_error_shrinks_with_shots(self):
        data_small, t = self.ideal_dataset(shots=100_000, seed=8)
        data_big, _ = self.ideal_dataset(shots=200_000, seed=9)
        small = monte_carlo_errorbar(data_small, t, 400, seed=10)
        big = monte_carlo_errorbar(data_big, t, 400, seed=11)
        ratio = big.fisher / small.fisher
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_requires_counts_and_enough_trials(self):
        data, t = self.ideal_dataset()
        with pytest.raises(ValueError, match="100"):
            monte_carlo_errorbar(data, t, 99, seed=1)
        spec = ProbeSpec("ghz", 2, 1.0)
        synthetic = synthetic_fringe(spec, Quadratic(1.0), t,
                                     np.linspace(0.0, math.pi, 25))
        with pytest.raises(ValueError, match="counts"):
            monte_carlo_errorbar(synthetic, t, 100, seed=1)

    def test_attach_to_result(self):
        data, t = self.ideal_dataset()
        result = sensitivity_from_fringe(data, t)
        errors = monte_carlo_errorbar(data, t, 120, seed=2)
        merged = apply_monte_carlo_errors(result, errors)
        assert merged.stderr_fisher == errors.fisher
        assert merged.stderr_d2omega_t == errors.d2omega_t
        assert merged.d2omega_t == result.d2omega_t

    def test_excessive_failures_reported(self, monkeypatch):
        data, t = self.ideal_dataset(shots=1000, seed=4)
        # every slope counts as degenerate, so every resampled trial fails
        monkeypatch.setattr(estimation, "_DEGENERATE_SLOPE", math.inf)
        with pytest.raises(RuntimeError, match="100 of 100"):
            monte_carlo_errorbar(data, t, 100, seed=6)

    @staticmethod
    def fragile_cases():
        """(label, dataset, time, trials, bootstrap seed, failures the
        per-trial bootstrap counted)."""
        model = Quadratic(1.0)
        grid = np.linspace(0.0, math.pi, 25)
        t4, t3, t6 = (optimal_time(model, n) for n in (4, 3, 6))
        readme = sample_fringe(ProbeSpec("ghz", 4, 0.8671), model, t4, grid,
                               1_000_000, seed=7)
        one_shot = sample_fringe(ProbeSpec("ghz", 3, 1.0), model, t3, grid,
                                 1, seed=5)
        clamped = noise_subtract(
            sample_fringe(ProbeSpec("ghz", 6, 1.0), model, t6, grid, 3,
                          seed=1), 0.8)
        assert np.any(clamped.clamped)
        return [
            ("readme N=4", readme, t4, 200, 3, 0),
            ("N=3 one shot", one_shot, t3, 200, 11, 4),
            ("N=6 three shots, subtracted", clamped, t6, 200, 11, 2),
        ]

    def test_batched_matches_per_trial_loop(self):
        for label, data, t, trials, seed, failures in self.fragile_cases():
            errors = monte_carlo_errorbar(data, t, trials, seed)
            failed, spreads = bootstrap_reference(data, t, trials, seed)
            assert errors.trials == trials, label
            assert errors.failed_trials == failed == failures, label
            batched = (errors.amplitude, errors.derivative, errors.d2omega_t,
                       errors.fisher)
            for got, want in zip(batched, spreads):
                assert got == pytest.approx(want, rel=1e-12), label

    def test_failures_counted_by_reason(self):
        names = {message: name for name, _, message in estimation._FAILURES[1:]}
        pinned = {"readme N=4": {},
                  "N=3 one shot": {"zero_variance": 4},
                  "N=6 three shots, subtracted": {"zero_variance": 2}}
        for label, data, t, trials, seed, failures in self.fragile_cases():
            errors = monte_carlo_errorbar(data, t, trials, seed)
            messages = Counter()
            bootstrap_reference(data, t, trials, seed, messages)
            none = dict.fromkeys(names.values(), 0)
            expected = dict(none, **pinned[label])
            assert dict(none, **{names[m]: count for m, count
                                 in messages.items()}) == expected, label
            assert errors.failures_by_reason == expected, label
            assert list(errors.failures_by_reason) == [
                "few_points", "short_span", "singular_fit",
                "singular_covariance", "degenerate_slope", "zero_variance"]
            assert errors.failure_counts == (trials - failures,
                                             *expected.values()), label

    def test_shared_rejections_raise_at_once(self):
        data, t = self.ideal_dataset()
        with pytest.raises(ValueError, match="positive"):
            monte_carlo_errorbar(data, 0.0, 100, seed=1)
        uncovered = data.replace(theta=data.theta + 1.0)  # misses pi/4
        with pytest.raises(ValueError, match="does not cover the working"):
            monte_carlo_errorbar(uncovered, t, 100, seed=1)


class TestNoiseSubtraction:
    def test_divides_estimates_and_errors(self):
        data, t = TestMonteCarlo.ideal_dataset()
        sub = noise_subtract(data, 0.8)
        ok = data.usable
        ratio = sub.estimate[ok] / data.estimate[ok]
        clipped = np.abs(data.estimate[ok] / 0.8) > 1.0
        assert np.allclose(ratio[~clipped & (data.estimate[ok] != 0)], 1.25)
        assert np.allclose(sub.stderr[ok], data.stderr[ok] / 0.8)
        assert sub.noise_divisor == 0.8

    def test_unity_is_identity(self):
        data, _ = TestMonteCarlo.ideal_dataset()
        sub = noise_subtract(data, 1.0)
        assert np.allclose(sub.estimate, data.estimate, equal_nan=True)
        assert np.allclose(sub.stderr, data.stderr, equal_nan=True)

    def test_clamp_flags(self):
        data = planted_fringe(2, 0.9, 0.0)
        sub = noise_subtract(data, 0.5)
        assert np.all(np.abs(sub.estimate[sub.usable]) <= 1.0)
        assert np.any(sub.clamped)
        flagged = sub.estimate[sub.clamped]
        assert np.all(np.abs(flagged) == 1.0)

    def test_domain(self):
        data = planted_fringe(2, 0.9, 0.0)
        with pytest.raises(ValueError):
            noise_subtract(data, 0.0)
        with pytest.raises(ValueError):
            noise_subtract(data, 1.2)
        # a subnormal V0 once overflowed the division with a RuntimeWarning
        with pytest.raises(ValueError, match="1 / V0 overflows"):
            noise_subtract(data, 1e-320)
        assert noise_subtract(data, 1e-300).noise_divisor == 1e-300

    def test_composes_for_resampling(self):
        data, t = TestMonteCarlo.ideal_dataset()
        sub = noise_subtract(noise_subtract(data, 0.9), 0.9)
        assert sub.noise_divisor == pytest.approx(0.81, rel=1e-15)
        errors = monte_carlo_errorbar(sub, t, 120, seed=17)
        assert errors.d2omega_t > 0.0
