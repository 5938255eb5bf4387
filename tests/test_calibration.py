"""The bootstrap error bars are calibrated against the estimator's scatter.

For GHZ probes with the README visibilities, K independent fringes are
sampled at a fixed seed and each is read out with bootstrap error bars.  The
mean bootstrap variance of ``d2omega_t`` must match the empirical variance of
the K read-outs, the mean read-out must approach the closed form as the shot
count grows, and at 1e6 shots the bootstrap spread must agree with the delta
method applied to the fit's covariance of ``(A, phi)``.
"""

import functools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from zenometry import (
    ProbeSpec,
    Quadratic,
    fit_fringe,
    monte_carlo_errorbar,
    optimal_time,
    sample_fringe,
    sensitivity_closed_form,
    sensitivity_from_fringe,
)

FRINGES = 100          # K independent fringes per case
TRIALS = 100           # bootstrap trials per fringe
LEVEL = 0.999          # two-sided level of the chi-square interval
README_VISIBILITY = {1: 0.9776, 4: 0.8671, 6: 0.7968}
SHOTS = (1_000, 1_000_000)
CASES = [(n, shots) for n in README_VISIBILITY for shots in SHOTS]
IDS = [f"N={n}-shots={shots:g}" for n, shots in CASES]
MODEL = Quadratic(1.0)
GRID = np.linspace(0.0, math.pi, 25)


def d2omega_t(amplitude, phase, m, t):
    """``d2omega_t`` of the fitted fringe ``A cos(m theta + phi)`` read at
    ``theta_w = pi / (2 m)``, for a GHZ probe (one repetition)."""
    arg = math.pi / 2.0 + phase
    expectation = amplitude * math.cos(arg)
    slope = -m * amplitude * math.sin(arg) * t
    return t * (1.0 - expectation**2) / slope**2


def d2omega_t_gradient(amplitude, phase, m, t):
    """``(d/dA, d/dphi)`` of :func:`d2omega_t`, which equals
    ``(1 / (A**2 s**2) - c**2 / s**2) / (m**2 t)`` with ``c, s`` the cosine
    and sine of ``pi / 2 + phi``."""
    arg = math.pi / 2.0 + phase
    c, s = math.cos(arg), math.sin(arg)
    scale = m * m * t
    return np.array([-2.0 / (scale * s**2 * amplitude**3),
                     2.0 * c * (1.0 - 1.0 / amplitude**2) / (scale * s**3)])


@functools.cache
def case(n, shots):
    """Closed form, and per fringe: read-out, bootstrap variance, and
    delta-method variance."""
    spec = ProbeSpec("ghz", n, README_VISIBILITY[n])
    t = optimal_time(MODEL, spec.fringe_frequency)
    d2, boot, delta = [], [], []
    for k in range(FRINGES):
        data = sample_fringe(spec, MODEL, t, GRID, shots, seed=1000 * n + k)
        result = sensitivity_from_fringe(data, t)
        errors = monte_carlo_errorbar(data, t, TRIALS, seed=k)
        assert errors.failed_trials == 0
        fit = fit_fringe(data)
        assert d2omega_t(fit.amplitude, fit.phase, n, t) == pytest.approx(
            result.d2omega_t, rel=1e-12)
        gradient = d2omega_t_gradient(fit.amplitude, fit.phase, n, t)
        d2.append(result.d2omega_t)
        boot.append(errors.d2omega_t**2)
        delta.append(float(gradient @ fit.covariance @ gradient))
    return (sensitivity_closed_form(spec, MODEL, t), np.array(d2),
            np.array(boot), np.array(delta))


@pytest.mark.parametrize("n, shots", CASES, ids=IDS)
def test_bootstrap_variance_matches_scatter(n, shots):
    # With calibrated error bars, (K - 1) s^2 / sigma^2 follows chi-square
    # with K - 1 degrees of freedom, so sigma^2 / s^2 lies inside this
    # interval with probability LEVEL.
    _, d2, boot, _ = case(n, shots)
    ratio = float(np.mean(boot) / np.var(d2, ddof=1))
    tail = (1.0 - LEVEL) / 2.0
    low = (FRINGES - 1) / chi2.ppf(1.0 - tail, FRINGES - 1)
    high = (FRINGES - 1) / chi2.ppf(tail, FRINGES - 1)
    assert low <= ratio <= high, (ratio, low, high)


@pytest.mark.parametrize("n", README_VISIBILITY)
def test_mean_read_out_approaches_closed_form(n):
    deviations = []
    for shots in SHOTS:
        closed, d2, _, _ = case(n, shots)
        sem = float(np.std(d2, ddof=1)) / math.sqrt(FRINGES)
        deviation = float(np.mean(d2)) - closed
        assert abs(deviation) <= 4.0 * sem, (shots, deviation, sem)
        deviations.append(abs(deviation) / closed)
    assert deviations[-1] <= 1e-3, deviations


@pytest.mark.parametrize("n", README_VISIBILITY)
def test_bootstrap_agrees_with_delta_method(n):
    # A bootstrap variance from TRIALS replicas has relative sd
    # sqrt(2 / (TRIALS - 1)), about 14 %; the mean over FRINGES fringes has
    # about 1.4 %, so 5 % is more than three of those.
    _, _, boot, delta = case(n, SHOTS[-1])
    ratio = float(np.mean(boot) / np.mean(delta))
    assert abs(ratio - 1.0) <= 0.05, ratio


def test_pooled_bootstrap_variance_matches_scatter():
    # Summed over the cases, sum (K - 1) s^2 / sigma^2 follows chi-square
    # with len(CASES) (K - 1) degrees of freedom.  The pooled interval is
    # narrow enough to catch a 1.25x miscalibration; each case's catches 1.6x.
    dof = len(CASES) * (FRINGES - 1)
    statistic = 0.0
    for n, shots in CASES:
        _, d2, boot, _ = case(n, shots)
        statistic += (FRINGES - 1) * float(np.var(d2, ddof=1) / np.mean(boot))
    ratio = dof / statistic
    tail = (1.0 - LEVEL) / 2.0
    low = dof / chi2.ppf(1.0 - tail, dof)
    high = dof / chi2.ppf(tail, dof)
    assert low <= ratio <= high, (ratio, low, high)
