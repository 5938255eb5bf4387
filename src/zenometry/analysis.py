"""Scaling analysis: slopes, metrological bounds, and noise robustness."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .decay import DecayModel
from .estimation import _solve_normal, optimal_time, sensitivity_closed_form
from .probes import ProbeSpec

__all__ = [
    "ScalingFit",
    "ReferenceBounds",
    "NoiseSweepResult",
    "scaling_fit",
    "reference_bounds",
    "relative_resolution",
    "noise_sweep",
    "advantage_crossing",
]


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit ``value = exp(intercept) * N**slope`` in log-log space."""

    slope: float
    intercept: float
    slope_stderr: float
    chi2: float  # weighted residual sum; unit weights when unweighted
    dof: int  # points minus 2


def scaling_fit(points) -> ScalingFit:
    """Weighted least squares of ``log(value)`` against ``log(N)``.

    ``points`` is an iterable of ``(N, value, stderr)``; stderrs propagate to
    log space as ``stderr / value`` and act as inverse-variance weights.  If
    any stderr is missing or zero the fit falls back to ordinary least
    squares, with the slope error scaled by ``chi2 / dof`` (zero for an exact
    power law).  The normal equations in ``x = log(N)`` centred at its
    weighted mean are solved in closed form, and are degenerate unless
    ``det > eps * sum(w) * sum(w x**2)``.
    """
    pts = [(float(n), float(v), None if s is None else float(s))
           for n, v, s in points]
    if len(pts) < 3:
        raise ValueError("need at least three points for a scaling fit")
    if not all(0.0 < n < math.inf and 0.0 < v < math.inf for n, v, _ in pts):
        raise ValueError("N and value must be finite and positive to take logs")
    if any(s is not None and (not math.isfinite(s) or s < 0.0) for _, _, s in pts):
        raise ValueError("stderr values must be finite and non-negative")
    if len({n for n, _, _ in pts}) < 2:
        raise ValueError("degenerate N values; cannot fit a slope")
    x = np.log([n for n, _, _ in pts])
    y = np.log([v for _, v, _ in pts])
    weighted = all(s is not None and s > 0.0 for _, _, s in pts)
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / np.array([s / v if weighted else 1.0 for _, v, s in pts])**2
    if not np.isfinite(w).all():
        raise ValueError("inverse-variance weights overflow")
    # 2**-scale puts max(w) in [1, 2) and scales the normal equations exactly
    scale = np.frexp(np.max(w))[1] - 1
    w = np.ldexp(w, -scale)
    # about the weighted mean of log(N) the normal equations are near diagonal
    x0 = np.sum(w * x) / np.sum(w)
    xc = x - x0
    wx = w * xc
    (level, slope), (_, _, v_bb), singular = _solve_normal(
        np.sum(w), np.sum(wx), np.sum(wx * xc), np.sum(w * y), np.sum(wx * y))
    if singular:
        raise ValueError("degenerate N values; cannot fit a slope")
    intercept = level - slope * x0
    r = y - (level + slope * xc)
    chi2 = float(np.ldexp(np.sum(w * r * r), scale))
    dof = len(pts) - 2
    variance = np.ldexp(v_bb, -scale) * (1.0 if weighted else chi2 / dof)
    return ScalingFit(slope=float(slope), intercept=float(intercept),
                      slope_stderr=math.sqrt(variance), chi2=chi2, dof=dof)


@dataclass(frozen=True)
class ReferenceBounds:
    """Reference ``d2omega_t`` curves under quadratic decay of coefficient c.

    All three share the anchor ``2 sqrt(e c)``: the standard quantum limit
    divides it by N (independent qubits at the single-qubit optimum), the
    Zeno limit by N**1.5 (ideal GHZ at its optimum), and the Heisenberg-like
    envelope by N**2.  For every N: hl <= zl <= sql.
    """

    n_values: tuple[int, ...]
    sql: tuple[float, ...]
    zl: tuple[float, ...]
    hl: tuple[float, ...]


def _anchor(gamma_coefficient: float) -> float:
    """The bounds' shared ``2 sqrt(e c)``, refused when it is not finite."""
    c = float(gamma_coefficient)
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError("decay coefficient must be positive")
    anchor = 2.0 * math.sqrt(math.e * c)
    if anchor == math.inf:
        raise ValueError(f"decay coefficient {c!r} is too large: 2 sqrt(e c) "
                         "overflows")
    return anchor


def _qubit_counts(n_values) -> list[int]:
    """``n_values`` as ints, refused unless there is one and each is >= 1."""
    ns = [int(n) for n in n_values]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("need qubit counts >= 1")
    return ns


def reference_bounds(n_values, gamma_coefficient: float) -> ReferenceBounds:
    ns = _qubit_counts(n_values)
    anchor = _anchor(gamma_coefficient)
    return ReferenceBounds(
        n_values=tuple(ns),
        sql=tuple(anchor / n for n in ns),
        zl=tuple(anchor / n**1.5 for n in ns),
        hl=tuple(anchor / n**2 for n in ns),
    )


def relative_resolution(n: int, model_nm: DecayModel, model_m: DecayModel) -> float:
    """Ratio ``r^2`` of GHZ variances, reference channel over test channel.

    Both channels are interrogated at their own optimal time with an ideal
    N-qubit GHZ probe; ``r^2 > 1`` means the test (first) channel resolves
    the frequency better than the reference (second) one.
    """
    spec = ProbeSpec("ghz", int(n), 1.0)
    t_nm = optimal_time(model_nm, spec.n_qubits)
    t_m = optimal_time(model_m, spec.n_qubits)
    return (sensitivity_closed_form(spec, model_m, t_m)
            / sensitivity_closed_form(spec, model_nm, t_nm))


@dataclass(frozen=True)
class NoiseSweepResult:
    """One visibility's sweep: columns with one entry per N, in given order.

    The N column they line up with is the N values the sweep was given, and
    the SQL column their flags compare with is ``.sql`` of
    ``reference_bounds(ns, gamma_coefficient)``.
    """

    d2omega_t_ghz: tuple[float, ...]
    beats_sql: tuple[bool, ...]
    crossing: int | None


def noise_sweep(fusion_visibility: float, n_values,
                gamma_coefficient: float = 1.0) -> NoiseSweepResult:
    """White-noise GHZ versus the standard quantum limit, N by N.

    The fusion-diluted GHZ probe at the Zeno optimum reaches
    ``2 sqrt(e c) / (N**1.5 v**N)``; it beats the SQL ``2 sqrt(e c) / N``
    exactly when ``sqrt(N) v**N > 1``.  The result holds the GHZ column and
    its ``beats_sql`` flags, computed N by N in Python floats, so at v = 1 the
    GHZ column equals ``reference_bounds(...).zl`` exactly, and each flag
    compares with the SQL entry of ``reference_bounds(...).sql`` to the bit.
    ``crossing`` is the largest qubit number that still beats the SQL (None
    when the advantage never appears, or never disappears as for v = 1).
    Underflow of ``v**N`` reports an infinite variance rather than an error.
    """
    v = float(fusion_visibility)
    if not 0.0 < v <= 1.0:
        raise ValueError("fusion visibility must lie in (0, 1]")
    anchor = _anchor(gamma_coefficient)
    ns = _qubit_counts(n_values)
    d2 = tuple(anchor / denominator if denominator > 0.0 else math.inf
               for denominator in (n**1.5 * v**n for n in ns))
    return NoiseSweepResult(
        d2omega_t_ghz=d2,
        # the SQL as reference_bounds computes it
        beats_sql=tuple(d < anchor / n for d, n in zip(d2, ns)),
        crossing=advantage_crossing(v),
    )


def advantage_crossing(fusion_visibility: float) -> int | None:
    """Largest integer N with ``sqrt(N) v**N > 1``.

    For v = 1 the advantage never ends (returns None).  For v < 1 the
    log-condition ``ln(N)/2 + N ln(v)`` is concave with its peak at
    ``N = -1/(2 ln v)``, so the best integer is next to the peak and the
    advantaged integers form one run; returns None when it is empty, else
    the run's end, found by doubling and integer bisection.
    """
    v = float(fusion_visibility)
    if not 0.0 < v <= 1.0:
        raise ValueError("fusion visibility must lie in (0, 1]")
    if v == 1.0:
        return None
    log_v = math.log(v)

    def margin(n: int) -> float:
        return 0.5 * math.log(n) + n * log_v

    lo = max(1, math.floor(-0.5 / log_v))
    if margin(lo) <= 0.0:
        lo += 1
        if margin(lo) <= 0.0:
            return None
    hi = 2 * lo
    while margin(hi) > 0.0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # margin(lo) > 0 >= margin(hi)
        mid = (lo + hi) // 2
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
