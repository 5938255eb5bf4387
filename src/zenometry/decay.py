"""Dephasing decay exponents.

A pure-dephasing channel multiplies single-qubit coherences by
``exp(-gamma(t))``.  The shape of the exponent fixes the physics: ``gamma``
linear in ``t`` is the memoryless (semigroup) channel, ``gamma`` quadratic in
``t`` is the short-time Zeno regime of a non-Markovian bath, and tabulated
samples cover channels that were measured rather than modelled.  Every model
satisfies ``gamma(0) = 0`` and is non-decreasing in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tables import read_table

__all__ = ["DecayModel", "Markovian", "Quadratic", "Tabulated"]


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and non-negative, got {t!r}")
    return t


def _finite_optimum(t: float, term: str, n: int) -> float:
    if not 0.0 < t < math.inf:
        raise ValueError(f"optimal time at N = {n} is {t!r}: {term} or its "
                         "reciprocal leaves the float range")
    return t


class DecayModel:
    """Decay exponent ``gamma(t)`` and its optimum.

    ``optimal_time(n)`` maximises ``t exp(-2 n gamma(t))`` in closed form:
    ``1 / (2 n rate)``, ``sqrt(1 / (4 n c))``, or for a table the best of the
    per-segment roots ``1 / (2 n slope)``, each clipped to its segment.
    """

    def gamma_at(self, t: float) -> float:
        """Decay exponent at time ``t >= 0``."""
        raise NotImplementedError

    def optimal_time(self, n: int) -> float:
        """Time minimising ``2 n gamma(t) - ln t`` for fringe frequency ``n``."""
        raise NotImplementedError

    def coherence_factor(self, t: float) -> float:
        """``exp(-gamma(t))``: equals 1 at ``t = 0``, non-increasing after."""
        return math.exp(-self.gamma_at(t))


@dataclass(frozen=True)
class Markovian(DecayModel):
    """``gamma(t) = rate * t``, the semigroup (memoryless) family."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError("rate must be finite and non-negative")

    def gamma_at(self, t: float) -> float:
        return self.rate * _check_time(t)

    def optimal_time(self, n: int) -> float:
        if self.rate <= 0.0:
            raise ValueError("a zero-rate channel has no finite optimum")
        return _finite_optimum(1.0 / (2.0 * n * self.rate), "2 N rate", n)


@dataclass(frozen=True)
class Quadratic(DecayModel):
    """``gamma(t) = coefficient * t**2``, the short-time Zeno family."""

    coefficient: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient) or self.coefficient < 0.0:
            raise ValueError("coefficient must be finite and non-negative")

    def gamma_at(self, t: float) -> float:
        t = _check_time(t)
        return self.coefficient * t * t

    def optimal_time(self, n: int) -> float:
        if self.coefficient <= 0.0:
            raise ValueError("a zero-coefficient channel has no finite optimum")
        return _finite_optimum(math.sqrt(1.0 / (4.0 * n * self.coefficient)),
                               "4 N c", n)


class Tabulated(DecayModel):
    """Piecewise-linear ``gamma(t)`` through measured ``(t, gamma)`` samples.

    A leading ``(0, 0)`` sample is prepended when the table starts later, so
    ``gamma(0) = 0`` always holds.  Queries beyond the last sample are
    rejected rather than extrapolated.
    """

    def __init__(self, samples) -> None:
        pts = [(float(t), float(g)) for t, g in samples]
        if pts and pts[0][0] > 0.0:
            pts.insert(0, (0.0, 0.0))
        if len(pts) < 2:
            raise ValueError("need at least two samples to define a segment")
        times = np.array([p[0] for p in pts])
        gammas = np.array([p[1] for p in pts])
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(gammas))):
            raise ValueError("samples must be finite")
        if times[0] != 0.0 or gammas[0] != 0.0:
            raise ValueError("first sample must be (0, 0)")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(np.diff(gammas) < 0.0):
            raise ValueError("gamma samples must be non-decreasing")
        slopes = np.diff(gammas) / np.diff(times)
        for array in (times, gammas, slopes):
            array.setflags(write=False)
        self._times = times
        self._gammas = gammas
        self._slopes = slopes

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._times.tolist(), self._gammas.tolist()))

    @property
    def t_max(self) -> float:
        return float(self._times[-1])

    def gamma_at(self, t: float) -> float:
        t = _check_time(t)
        if t > self.t_max:
            raise ValueError(
                f"t={t!r} outside the sampled range [0, {self.t_max!r}]"
            )
        return float(np.interp(t, self._times, self._gammas))

    def optimal_time(self, n: int) -> float:
        """``2 n gamma(t) - ln t`` is convex on each segment, so the clipped
        root (the right end at zero slope) is the segment's minimum; the
        lowest of these wins, the earliest on a tie."""
        # One-sided limit at the right edge uses the last segment's slope.
        if 2.0 * n * self.t_max * self._slopes[-1] - 1.0 < 0.0:
            raise ValueError(
                "optimal time not bracketed by the sampled range; extend the table"
            )
        with np.errstate(divide="ignore"):
            roots = 1.0 / (2.0 * n * self._slopes)
            candidates = np.clip(roots, self._times[:-1], self._times[1:])
            cost = (2.0 * n * np.interp(candidates, self._times, self._gammas)
                    - np.log(candidates))
        return float(candidates[np.argmin(cost)])

    def __repr__(self) -> str:
        return f"Tabulated({list(self.samples)!r})"

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load samples from a CSV file with exact header ``t,gamma``."""
        _, rows = read_table(path, ("t", "gamma"), (float, float))
        try:
            return cls(rows)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
