"""Frequency estimation from parity fringes.

The figure of merit is the per-total-time variance ``d2omega_t``
(``Delta^2 omega * T``).  Error propagation through one fringe point gives

    d2omega_t = t * (1 - <P>**2) / (R * |d<P>/d omega|**2)

evaluated at the working point ``theta_w = pi / (2 m)`` (first odd quarter
fringe), where ``m`` is the fringe frequency and ``R`` counts independent
repetitions folded into one recorded fringe (1 for a GHZ probe, N for the N
single-qubit fringes of a product probe).  The expectation and the slope
``d<P>/d omega`` are read off a weighted cosine fit (linear least squares,
global optimum).  A single fringe is read out as the one-row case of the
batched read-out that the parametric bootstrap runs over (trials, settings)
arrays.  The five-point finite-difference derivative is a standalone
numerical primitive; no read-out uses it.
"""

from __future__ import annotations

import math
from typing import NoReturn

from ._numpy import np
from ._record import record, replace
from .decay import DecayModel
from .fringes import FringeDataset, estimates_from_counts
from .probes import ProbeSpec
from .rng import MONTE_CARLO_TRIALS, StreamFamily

__all__ = [
    "FitError",
    "FitResult",
    "SensitivityResult",
    "MonteCarloErrors",
    "working_point",
    "sensitivity_closed_form",
    "closed_form_result",
    "fit_fringe",
    "stencil_derivative",
    "sensitivity_from_fringe",
    "monte_carlo_errorbar",
    "apply_monte_carlo_errors",
    "noise_subtract",
]

_DEGENERATE_SLOPE = 1e-9


class FitError(RuntimeError):
    """The cosine fit has no unique solution.

    The fit is a linear least-squares problem with a global optimum, so it
    fails only when its normal equations are singular, or when the fitted
    amplitude is zero or so small that the covariance of ``(A, phi)`` is
    singular or overflows.
    """


def working_point(fringe_frequency: int) -> float:
    """First odd quarter-fringe phase ``pi / (2 m)``: maximal slope."""
    m = int(fringe_frequency)
    if m < 1:
        raise ValueError("fringe frequency must be >= 1")
    return math.pi / (2.0 * m)


def sensitivity_closed_form(spec: ProbeSpec, model: DecayModel, t: float) -> float:
    """Ideal-operating-point ``d2omega_t`` for a fringe of amplitude
    ``V0 exp(-m gamma(t))`` read at its steepest phase.

    ``1 / ((N // m) m**2 t V0**2 exp(-2 m gamma(t)))`` with fringe frequency
    ``m``: ``m = N`` for GHZ, ``m = 1`` with N repetitions for product.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("interrogation time must be positive")
    m = spec.fringe_frequency
    gamma = model.gamma_at(t)
    v0 = spec.visibility
    if v0 <= 0.0:
        raise ValueError("visibility must be positive for a finite variance")
    information = (spec.n_qubits // m) * m * m * t * v0 * v0 * math.exp(-2.0 * m * gamma)
    if information == 0.0 or 1.0 / information == math.inf:
        raise ValueError(f"(N // m) m^2 t V0^2 exp(-2 m gamma(t)) is {information!r} "
                         f"at V0 = {v0!r}, t = {t!r}, so the variance, its "
                         "reciprocal, is not finite")
    return 1.0 / information


SENSITIVITY_CSV_HEADER = ("N", "strategy", "t_opt", "d2omegaT", "fisher",
                          "stderr_fisher")


@record
class SensitivityResult:
    """One evaluated operating point of one probe."""

    strategy: str
    n_qubits: int
    time: float
    amplitude: float
    expectation_at_working_point: float
    derivative_omega: float
    d2omega_t: float
    stderr_amplitude: float | None = None
    stderr_d2omega_t: float | None = None
    stderr_fisher: float | None = None

    def __post_init__(self) -> None:
        if self.d2omega_t <= 0.0 or not math.isfinite(self.d2omega_t):
            raise ValueError("d2omega_t must be finite and positive")

    @property
    def fisher_per_photon(self) -> float:
        """Information per probe photon, ``1 / (N * d2omega_t)``."""
        return 1.0 / (self.n_qubits * self.d2omega_t)

    def to_csv_row(self) -> tuple:
        return (self.n_qubits, self.strategy, self.time, self.d2omega_t,
                self.fisher_per_photon, self.stderr_fisher)


def closed_form_result(spec: ProbeSpec, model: DecayModel, t: float) -> SensitivityResult:
    """Analytic working-point evaluation packaged like the fringe pipeline."""
    d2 = sensitivity_closed_form(spec, model, t)
    m = spec.fringe_frequency
    amplitude = spec.visibility * math.exp(-m * model.gamma_at(t))
    return SensitivityResult(
        strategy=spec.strategy,
        n_qubits=spec.n_qubits,
        time=float(t),
        amplitude=amplitude,
        expectation_at_working_point=0.0,
        derivative_omega=-m * amplitude * float(t),
        d2omega_t=d2,
    )


@record
class FitResult:
    """Weighted cosine fit ``A cos(m theta + phi)`` to one fringe."""

    amplitude: float
    phase: float
    covariance: np.ndarray
    chi2: float  # weighted residual sum; unit weights when unweighted
    dof: int  # usable points minus 2
    iterations: int
    weighted: bool

    @property
    def amplitude_stderr(self) -> float:
        return float(math.sqrt(max(self.covariance[0, 0], 0.0)))


# Read-out failure codes in check order (0 is success, 1-4 from ``_fit_rows``):
# a short, stable reason name, the error type and its message.  The
# single-fringe functions raise the matching error, the bootstrap counts it.
_FAILURES = (
    None,
    ("few_points", ValueError, "need at least 5 usable points to fit"),
    ("short_span", ValueError, "usable points must span at least half a period"),
    ("singular_fit", FitError, "normal equations are singular"),
    ("singular_covariance", FitError, "covariance is singular at the solution"),
    ("degenerate_slope", ValueError, "slope at the working point is degenerate"),
    ("zero_variance", ValueError,
     "projection-noise variance vanished at the working point"),
)


def _raise_failure(code: int) -> NoReturn:
    """Raise the error of a nonzero read-out failure code."""
    _, kind, message = _FAILURES[code]
    raise kind(message) from None


def _solve_normal(g_aa, g_ab, g_bb, b_a, b_b):
    """Cramer's-rule solution ``x`` and inverse ``(v_aa, v_ab, v_bb)`` of
    ``[[g_aa, g_ab], [g_ab, g_bb]] x = (b_a, b_b)``, elementwise on numpy
    arrays or scalars, and the singular flag ``not det > eps * g_aa * g_bb``:
    rounding alone moves det by about that much, so below it the columns are
    collinear to working precision.  Singular entries are meaningless."""
    det = g_aa * g_bb - g_ab * g_ab
    singular = ~np.greater(det, np.finfo(float).eps * g_aa * g_bb)
    with np.errstate(all="ignore"):
        x = ((g_bb * b_a - g_ab * b_b) / det, (g_aa * b_b - g_ab * b_a) / det)
        inverse = (g_bb / det, -g_ab / det, g_aa / det)
    return x, inverse, singular


def _fit_rows(theta: np.ndarray, estimate: np.ndarray, stderr: np.ndarray,
              m: int) -> tuple[np.ndarray, ...]:
    """Closed-form fit of ``A cos(m theta + phi)`` to every row at once.

    ``estimate`` and ``stderr`` have shape (rows, settings) over the shared
    grid ``theta``; a NaN estimate is missing.  The model equals
    ``c cos(m theta) + s (-sin(m theta))``, so each row is a weighted linear
    least-squares problem whose 2x2 normal equations :func:`_solve_normal`
    solves.  Returns the canonical amplitude ``hypot(c, s)`` and phase
    ``atan2(s, c)`` in (-pi, pi], whether the row was weighted, its
    per-point weights (0 off the usable points), and its failure code (an
    index into ``_FAILURES``).  Parameters of failed rows are meaningless.
    """
    usable = np.isfinite(estimate)
    count = np.count_nonzero(usable, axis=1)
    first = theta[np.argmax(usable, axis=1)]
    last = theta[theta.size - 1 - np.argmax(usable[:, ::-1], axis=1)]
    short = last - first < math.pi / m - 1e-12
    weighted = np.all(~usable | (stderr > 0.0), axis=1)
    with np.errstate(divide="ignore"):
        w = np.where(usable, np.where(weighted[:, None], 1.0 / stderr**2, 1.0),
                     0.0)
    y = np.where(usable, estimate, 0.0)
    cos = np.cos(m * theta)
    nsin = -np.sin(m * theta)
    wc = w * cos
    ws = w * nsin
    (c, s), _, singular = _solve_normal(
        np.sum(wc * cos, axis=1), np.sum(wc * nsin, axis=1),
        np.sum(ws * nsin, axis=1), np.sum(wc * y, axis=1),
        np.sum(ws * y, axis=1))
    amplitude = np.hypot(c, s)
    phase = np.arctan2(s, c)
    phase = np.where(phase <= -math.pi, math.pi, phase)
    failure = np.select([count < 5, short, singular, amplitude == 0.0],
                        [1, 2, 3, 4], 0)
    return amplitude, phase, weighted, w, failure


def fit_fringe(data: FringeDataset) -> FitResult:
    """Fit ``A cos(m theta + phi)`` to the usable points of a fringe.

    Inverse-variance weights when every usable point carries a positive
    stderr, unweighted otherwise.  The model is linear in
    ``(c, s) = (A cos phi, A sin phi)``, so the fit is the exact solution of a
    2x2 weighted linear least-squares problem: linear least squares, global
    optimum, no iteration (``iterations`` is always 1).  The result is
    ``A = hypot(c, s) >= 0`` and ``phi = atan2(s, c)`` in (-pi, pi]; the
    covariance is the inverse of the Jacobian normal matrix at those
    parameters, scaled by ``chi2 / dof`` in the unweighted case.  Raises
    :class:`FitError` when either 2x2 normal matrix fails the singularity
    test of :func:`_solve_normal`, or the covariance is not finite.
    """
    m = data.fringe_frequency
    amplitudes, phases, weighted_rows, weights, failures = _fit_rows(
        data.theta, data.estimate[None, :], data.stderr[None, :], m)
    if failures[0]:
        _raise_failure(failures[0])
    amplitude = float(amplitudes[0])
    phase = float(phases[0])
    weighted = bool(weighted_rows[0])

    mask = data.usable
    w = weights[0, mask]
    arg = m * data.theta[mask] + phase
    cos = np.cos(arg)
    d_phase = -amplitude * np.sin(arg)
    wc = w * cos
    _, (v_aa, v_ab, v_bb), singular = _solve_normal(
        np.sum(wc * cos), np.sum(wc * d_phase), np.sum(w * d_phase * d_phase),
        0.0, 0.0)
    covariance = np.array([[v_aa, v_ab], [v_ab, v_bb]])
    # a tiny amplitude overflows the inverse before the test calls it singular
    if singular or not np.isfinite(covariance).all():
        _raise_failure(4)
    residuals = data.estimate[mask] - amplitude * cos
    chi2 = float(np.sum(w * residuals * residuals))
    dof = residuals.size - 2
    covariance *= 1.0 if weighted else chi2 / dof
    covariance.setflags(write=False)
    return FitResult(amplitude=amplitude, phase=phase, covariance=covariance,
                     chi2=chi2, dof=dof, iterations=1, weighted=weighted)


def stencil_derivative(samples, h: float) -> float:
    """Five-point central first derivative at the middle sample.

    ``samples`` is ordered ``[f(x-2h), f(x-h), f(x), f(x+h), f(x+2h)]``; the
    middle value carries zero weight but is required to be present and
    finite.  Exact for polynomials through degree 4; the truncation error is
    ``h**4 f^(5)(xi) / 30``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.shape != (5,):
        raise ValueError("need exactly five samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("stencil samples must be finite")
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError("step must be finite and positive")
    return float((-arr[4] + 8.0 * arr[3] - 8.0 * arr[1] + arr[0]) / (12.0 * h))


def _read_out_plan(data: FringeDataset, t: float) -> tuple[float, float]:
    """Checks that reject every row alike.  Returns the validated time and
    the working point, which the grid must cover."""
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError("interrogation time must be positive")
    theta_w = working_point(data.fringe_frequency)
    if not (data.theta[0] - 1e-12 <= theta_w <= data.theta[-1] + 1e-12):
        raise ValueError("the dataset does not cover the working point")
    return t, theta_w


def _read_out(data: FringeDataset, estimate: np.ndarray, stderr: np.ndarray,
              t: float, theta_w: float):
    """Working-point read-out of each (rows, settings) row of ``estimate``.

    Returns the fitted amplitude, the expectation and ``d<P>/d omega`` at
    ``theta_w``, ``d2omega_t``, and each row's failure code (an index into
    ``_FAILURES``); values of failed rows are meaningless.
    """
    m = data.fringe_frequency
    amplitude, phase, _, _, failure = _fit_rows(data.theta, estimate, stderr, m)
    arg = m * theta_w + phase
    expectation = amplitude * np.cos(arg)
    domega = -m * amplitude * np.sin(arg) * t
    variance = 1.0 - expectation * expectation
    failure = np.select(
        [failure != 0, np.abs(domega) < _DEGENERATE_SLOPE, variance <= 0.0],
        [failure, 5, 6], 0)
    repetitions = data.n_qubits // m
    with np.errstate(all="ignore"):
        d2 = t * variance / (repetitions * domega * domega)
    return amplitude, expectation, domega, d2, failure


def sensitivity_from_fringe(data: FringeDataset, t: float) -> SensitivityResult:
    """Evaluate ``d2omega_t`` from one recorded fringe.

    The expectation and slope at the working point are read off the fitted
    cosine.  A slope ``d<P>/d omega`` smaller than 1e-9 in magnitude is
    degenerate and rejected, as is a fitted expectation of magnitude 1 or
    more, where the projection-noise variance vanishes.
    """
    t, theta_w = _read_out_plan(data, t)
    amplitude, expectation, domega, d2, failure = _read_out(
        data, data.estimate[None, :], data.stderr[None, :], t, theta_w)
    if failure[0]:
        _raise_failure(failure[0])
    return SensitivityResult(
        strategy=data.strategy,
        n_qubits=data.n_qubits,
        time=t,
        amplitude=float(amplitude[0]),
        expectation_at_working_point=float(expectation[0]),
        derivative_omega=float(domega[0]),
        d2omega_t=float(d2[0]),
    )


@record
class MonteCarloErrors:
    """Spread of pipeline outputs over count-resampled replicas."""

    amplitude: float
    d2omega_t: float
    fisher: float
    failed_trials: int
    trials: int
    # trials per read-out code: index 0 succeeded, index k failed with the
    # k-th reason of ``_FAILURES``
    failure_counts: tuple[int, ...]

    @property
    def failures_by_reason(self) -> dict[str, int]:
        """Failed trials per reason name, every reason listed."""
        return {reason[0]: count for reason, count
                in zip(_FAILURES[1:], self.failure_counts[1:])}


def monte_carlo_errorbar(data: FringeDataset, t: float, trials: int,
                         seed: int) -> MonteCarloErrors:
    """Parametric-bootstrap error bars for the fringe pipeline.

    Each trial resamples every setting's port counts from Poisson laws with
    means equal to the observed counts, rebuilds estimates (re-applying any
    recorded noise division), and re-evaluates the pipeline of
    :func:`sensitivity_from_fringe`.  Batched; one Philox substream per
    trial: trial ``k`` draws from ``substream(seed, MONTE_CARLO_TRIALS, k)``,
    so the result is deterministic and order-independent.  The trials are
    drawn from one rekeyed :class:`~zenometry.rng.StreamFamily`, one Poisson
    call each over the plus then the minus counts, which leaves every stream
    and draw unchanged.  All replicas are then estimated, fitted and read out
    as (trials, settings) arrays with the code that
    :func:`sensitivity_from_fringe` runs on one row.  A trial
    fails exactly where that single-fringe evaluation would raise: fewer than
    5 usable points, a usable span under half a period, singular normal
    equations, a zero amplitude, a degenerate slope, or a vanished variance.
    Failed trials are dropped and counted per reason (``failure_counts``);
    more than 10% of them failing is an error.  A time or grid that every
    trial would reject raises ``ValueError`` before any resampling.
    """
    trials = int(trials)
    if trials < 100:
        raise ValueError("need at least 100 trials for stable error bars")
    if seed is None:
        raise ValueError("resampling requires a seed")
    if not np.any(data.n_total > 0):
        raise ValueError("dataset carries no counts to resample")
    t, theta_w = _read_out_plan(data, t)
    # One call over [n_plus, n_minus] draws the plus ports, then the minus
    # ports: the same numbers as one call for each, in that order.
    means = np.concatenate([data.n_plus,
                            data.n_total - data.n_plus]).astype(float)
    draws = np.empty((trials, means.size), dtype=np.int64)
    family = StreamFamily(seed, MONTE_CARLO_TRIALS)
    for trial in range(trials):
        draws[trial] = family.at(trial).poisson(means)
    plus, minus = np.split(draws, 2, axis=1)
    estimate, stderr = estimates_from_counts(plus, plus + minus)
    if data.noise_divisor is not None:
        estimate = np.clip(estimate / data.noise_divisor, -1.0, 1.0)
        stderr = stderr / data.noise_divisor

    amplitude, _, _, d2, failure = _read_out(data, estimate, stderr, t, theta_w)
    counts = np.bincount(failure, minlength=len(_FAILURES))
    n_failed = trials - int(counts[0])
    if n_failed > 0.1 * trials:
        raise RuntimeError(
            f"{n_failed} of {trials} resampling trials failed; "
            "the dataset is too fragile for error bars"
        )
    ok = failure == 0
    d2 = d2[ok]

    def spread(values: np.ndarray) -> float:
        return float(np.std(values, ddof=1))
    return MonteCarloErrors(
        amplitude=spread(amplitude[ok]),
        d2omega_t=spread(d2),
        fisher=spread(1.0 / (data.n_qubits * d2)),
        failed_trials=n_failed,
        trials=trials,
        failure_counts=tuple(map(int, counts)),
    )


def apply_monte_carlo_errors(result: SensitivityResult,
                             errors: MonteCarloErrors) -> SensitivityResult:
    """Attach resampling spreads to a pipeline result."""
    return replace(
        result,
        stderr_amplitude=errors.amplitude,
        stderr_d2omega_t=errors.d2omega_t,
        stderr_fisher=errors.fisher,
    )


def noise_subtract(data: FringeDataset, v0: float) -> FringeDataset:
    """Divide estimates and errors by the t=0 visibility ``V0``.

    Rescaled estimates that leave [-1, 1] are clamped and flagged.  The
    divisor is recorded on the dataset (composing with any earlier division)
    so resampling reproduces the subtraction.
    """
    v0 = float(v0)
    if not 0.0 < v0 <= 1.0:
        raise ValueError("V0 must lie in (0, 1]")
    if 1.0 / v0 == math.inf:
        raise ValueError(f"V0 = {v0!r} is too small: 1 / V0 overflows")
    scaled = data.estimate / v0
    with np.errstate(invalid="ignore"):
        clamped = np.abs(scaled) > 1.0
    divisor = v0 if data.noise_divisor is None else data.noise_divisor * v0
    return data.replace(
        estimate=np.clip(scaled, -1.0, 1.0),
        stderr=data.stderr / v0,
        clamped=clamped,
        noise_divisor=divisor,
    )
