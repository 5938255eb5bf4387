"""Scaling analysis: slopes, metrological bounds, and noise robustness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import DecayModel
from .estimation import optimal_time, sensitivity_closed_form
from .probes import ProbeSpec

__all__ = [
    "ScalingFit",
    "ReferenceBounds",
    "NoiseSweepRow",
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
    residuals: np.ndarray


def scaling_fit(points) -> ScalingFit:
    """Weighted least squares of ``log(value)`` against ``log(N)``.

    ``points`` is an iterable of ``(N, value, stderr)``; stderrs propagate to
    log space as ``stderr / value`` and act as inverse-variance weights.  If
    any stderr is missing or zero the fit falls back to ordinary least
    squares, with the slope error scaled by the residual variance (zero for
    an exact power law).
    """
    pts = [(float(n), float(v), None if s is None else float(s))
           for n, v, s in points]
    if len(pts) < 3:
        raise ValueError("need at least three points for a scaling fit")
    if any(n <= 0.0 or v <= 0.0 for n, v, _ in pts):
        raise ValueError("N and value must be positive to take logs")
    if any(s is not None and (not math.isfinite(s) or s < 0.0) for _, _, s in pts):
        raise ValueError("stderr values must be finite and non-negative")
    if len({n for n, _, _ in pts}) < 2:
        raise ValueError("degenerate N values; cannot fit a slope")
    x = np.log([n for n, _, _ in pts])
    y = np.log([v for _, v, _ in pts])
    weighted = all(s is not None and s > 0.0 for _, _, s in pts)
    if weighted:
        sigma = np.array([s / v for _, v, s in pts])
        w = 1.0 / sigma**2
    else:
        w = np.ones(len(pts))
    design = np.column_stack((np.ones_like(x), x))
    gram = design.T @ (design * w[:, None])
    rhs = design.T @ (w * y)
    try:
        coeff = np.linalg.solve(gram, rhs)
        cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise ValueError("degenerate N values; cannot fit a slope") from None
    residuals = y - design @ coeff
    if not weighted:
        dof = len(pts) - 2
        cov = cov * (float(np.sum(residuals**2)) / dof)
    residuals.setflags(write=False)
    return ScalingFit(
        slope=float(coeff[1]),
        intercept=float(coeff[0]),
        slope_stderr=float(math.sqrt(max(cov[1, 1], 0.0))),
        residuals=residuals,
    )


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


def reference_bounds(n_values, gamma_coefficient: float) -> ReferenceBounds:
    ns = [int(n) for n in n_values]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("need qubit counts >= 1")
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
class NoiseSweepRow:
    n: int
    d2omega_t_ghz: float
    bound_sql: float
    beats_sql: bool


@dataclass(frozen=True)
class NoiseSweepResult:
    """One visibility's sweep, held as columns with one entry per N.

    ``rows`` builds the same table as one ``NoiseSweepRow`` per N, for
    callers that read it row by row.
    """

    fusion_visibility: float
    gamma_coefficient: float
    n_values: tuple[int, ...]
    d2omega_t_ghz: tuple[float, ...]
    bound_sql: tuple[float, ...]
    beats_sql: tuple[bool, ...]
    crossing: int | None

    @property
    def rows(self) -> tuple[NoiseSweepRow, ...]:
        return tuple(map(NoiseSweepRow, self.n_values, self.d2omega_t_ghz,
                         self.bound_sql, self.beats_sql))


def noise_sweep(fusion_visibility: float, n_values,
                gamma_coefficient: float = 1.0) -> NoiseSweepResult:
    """White-noise GHZ versus the standard quantum limit, N by N.

    The fusion-diluted GHZ probe at the Zeno optimum reaches
    ``2 sqrt(e c) / (N**1.5 v**N)``; it beats the SQL ``2 sqrt(e c) / N``
    exactly when ``sqrt(N) v**N > 1``.  The result holds one column per
    quantity, computed N by N in Python floats, so at v = 1 the GHZ column
    equals ``reference_bounds(...).zl`` exactly.  ``crossing`` is the largest
    qubit number that still beats the SQL (None when the advantage never
    appears, or never disappears as for v = 1).  Underflow of ``v**N``
    reports an infinite variance rather than an error.

    ``n_values`` may also be the ``ReferenceBounds`` that
    ``reference_bounds(ns, gamma_coefficient)`` returned; N values are made
    into those first.  Their N tuple and SQL column are taken as they are, so
    a sweep over several visibilities computes only the GHZ column for each.
    """
    v = float(fusion_visibility)
    if not 0.0 < v <= 1.0:
        raise ValueError("fusion visibility must lie in (0, 1]")
    anchor = _anchor(gamma_coefficient)
    bounds = (n_values if isinstance(n_values, ReferenceBounds)
              else reference_bounds(n_values, gamma_coefficient))
    ns, sql = bounds.n_values, bounds.sql
    if not ns or len(sql) != len(ns) or sql[0] != anchor / ns[0]:
        raise ValueError("bounds must be reference_bounds(n_values, "
                         "gamma_coefficient)")
    d2 = tuple(anchor / denominator if denominator > 0.0 else math.inf
               for denominator in (n**1.5 * v**n for n in ns))
    return NoiseSweepResult(
        fusion_visibility=v,
        gamma_coefficient=float(gamma_coefficient),
        n_values=ns,
        d2omega_t_ghz=d2,
        bound_sql=sql,
        beats_sql=tuple(map(float.__lt__, d2, sql)),
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
