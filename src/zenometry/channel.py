"""Beam-displacer realization of a tunable dephasing channel.

A pair of birefringent displacers separates the two polarisation components
of a photon transversely.  Tracing out the spatial mode multiplies the
polarisation coherence by the overlap of the two displaced mode copies, so a
geometric displacement acts as pure dephasing.  For a Gaussian mode of waist
``w`` (the 1/e^2 intensity radius; amplitude ``exp(-x^2 / w^2)``) a relative
shift ``x0`` leaves the overlap ``exp(-x0^2 / (2 w^2))``.

The dimensionless ratio ``x0 / w`` plays the role of an effective
interrogation time: composing it with the quadratic decay family of
coefficient 1/2 reproduces the overlap exactly, i.e. the channel as built
realises ``gamma = (x0/w)^2 / 2``.  Analyses that instead adopt the
``gamma = t^2`` convention absorb the factor of two into the coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from ._numpy import np
from .tables import read_table

__all__ = [
    "GaussianMode",
    "TabulatedMode",
    "CalibrationRow",
    "displacement_from_thickness",
    "overlap_gaussian",
    "overlap_numeric",
    "effective_time",
    "measured_visibility",
    "load_bd_calibration",
]

# Total separation between the two polarisation components per mm of
# displacer thickness (calcite walk-off calibration).
_SEPARATION_PER_MM = math.sqrt(2.0) / 9.4103


def _simpson(f: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples ``f`` (at least 3) of step ``h``.

    An even sample count closes with the three-point rule for the last
    interval, ``h (5 f[-1] + 8 f[-2] - f[-3]) / 12``.
    """
    n = f.size - (f.size % 2 == 0)
    total = h / 3.0 * (f[0] + 4.0 * f[1:n - 1:2].sum()
                       + 2.0 * f[2:n - 2:2].sum() + f[n - 1])
    if n < f.size:
        total += h / 12.0 * (5.0 * f[-1] + 8.0 * f[-2] - f[-3])
    return float(total)


@dataclass(frozen=True)
class GaussianMode:
    """Gaussian spatial mode; ``waist`` is the 1/e^2 intensity radius."""

    waist: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.waist) or self.waist <= 0.0:
            raise ValueError("waist must be finite and positive")
        if 2.0 * self.waist * self.waist == 0.0:
            raise ValueError(f"waist {self.waist!r} is too small: its square underflows")


class TabulatedMode:
    """Sampled 1-D amplitude profile on a uniform grid.

    The constructor rescales the amplitudes so the intensity integrates to 1
    (composite Simpson rule on the stored grid).
    """

    def __init__(self, positions, amplitudes) -> None:
        x = np.asarray(positions, dtype=float)
        a = np.asarray(amplitudes, dtype=float)
        if x.ndim != 1 or x.shape != a.shape or x.size < 3:
            raise ValueError("need matching 1-D arrays of at least 3 samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(a))):
            raise ValueError("positions and amplitudes must be finite")
        steps = np.diff(x)
        if np.any(steps <= 0.0):
            raise ValueError("positions must be strictly increasing")
        dx = float(steps[0])
        if np.any(np.abs(steps - dx) > 1e-9 * max(dx, 1.0)):
            raise ValueError("positions must form a uniform grid")
        norm = _simpson(a * a, dx)
        if norm <= 0.0:
            raise ValueError("profile must carry non-zero intensity")
        a = a / math.sqrt(norm)
        x = x.copy()
        x.setflags(write=False)
        a.setflags(write=False)
        self._x = x
        self._a = a
        self._dx = dx

    @property
    def positions(self) -> np.ndarray:
        return self._x

    @property
    def amplitudes(self) -> np.ndarray:
        return self._a

    @property
    def spacing(self) -> float:
        return self._dx

    @classmethod
    def gaussian(cls, mode: GaussianMode, half_width: float = 6.0,
                 points: int = 4097) -> "TabulatedMode":
        """Discretize a Gaussian mode over ``+-half_width`` waists."""
        if half_width <= 0.0 or points < 3:
            raise ValueError("half_width must be positive and points >= 3")
        x = np.linspace(-half_width * mode.waist, half_width * mode.waist,
                        int(points))
        return cls(x, np.exp(-(x / mode.waist) ** 2))

    @classmethod
    def from_csv(cls, path) -> "TabulatedMode":
        """Load a profile from a CSV file with header ``x,amplitude``."""
        _, rows = read_table(path, ("x", "amplitude"), (float, float))
        try:
            return cls([r[0] for r in rows], [r[1] for r in rows])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def displacement_from_thickness(thickness_mm: float) -> float:
    """Total separation ``x0`` produced by a displacer of given thickness."""
    thickness_mm = float(thickness_mm)
    if not math.isfinite(thickness_mm) or thickness_mm < 0.0:
        raise ValueError("thickness must be finite and non-negative")
    return _SEPARATION_PER_MM * thickness_mm


def overlap_gaussian(x0: float, mode: GaussianMode) -> float:
    """Overlap of two copies of a Gaussian mode shifted by ``x0``.

    Strictly decreasing in ``|x0|``, strictly increasing in the waist, and
    equal to 1 at ``x0 = 0``.
    """
    x0 = float(x0)
    if not math.isfinite(x0):
        raise ValueError("shift must be finite")
    return math.exp(-x0 * x0 / (2.0 * mode.waist * mode.waist))


def overlap_numeric(mode: TabulatedMode, x0: float) -> float:
    """Overlap of a tabulated profile with a shifted copy of itself.

    Composite Simpson quadrature of ``amp(x) * amp(x - x0)`` on the stored
    grid; the shifted copy is linearly interpolated and vanishes outside the
    sampled support.
    """
    x0 = float(x0)
    if not math.isfinite(x0):
        raise ValueError("shift must be finite")
    x = mode.positions
    span = float(x[-1] - x[0])
    if abs(x0) > span:
        raise ValueError(f"shift {x0!r} exceeds the sampled support {span!r}")
    shifted = np.interp(x - x0, x, mode.amplitudes, left=0.0, right=0.0)
    return _simpson(mode.amplitudes * shifted, mode.spacing)


def effective_time(x0: float, mode: GaussianMode) -> float:
    """Dimensionless interrogation time ``x0 / w`` realised by a shift.

    With the quadratic decay family of coefficient 1/2 this reproduces the
    Gaussian overlap exactly: ``exp(-(x0/w)^2 / 2) = overlap_gaussian(x0)``.
    """
    x0 = float(x0)
    if not math.isfinite(x0) or x0 < 0.0:
        raise ValueError("shift must be finite and non-negative")
    return x0 / mode.waist


def measured_visibility(intensity_plus: float, intensity_minus: float) -> float:
    """Fringe visibility ``(I+ - I-) / (I+ + I-)`` from port intensities."""
    ip = float(intensity_plus)
    im = float(intensity_minus)
    if not (math.isfinite(ip) and math.isfinite(im)) or ip < 0.0 or im < 0.0:
        raise ValueError("intensities must be finite and non-negative")
    if ip + im <= 0.0:
        raise ValueError("total intensity must be positive")
    return (ip - im) / (ip + im)


@dataclass(frozen=True)
class CalibrationRow:
    """One measured calibration point of the displacer channel.

    Each displacer of the pair shifts by ``d = per_bd_displacement``, along
    orthogonal transverse directions, so the two components end up separated
    by ``total_separation = sqrt(2) * d``.
    """

    per_bd_displacement: float
    intensity_plus: float
    intensity_minus: float

    def __post_init__(self) -> None:
        d = self.per_bd_displacement
        if not math.isfinite(d) or d < 0.0:
            raise ValueError("per-displacer displacement must be >= 0")
        measured_visibility(self.intensity_plus, self.intensity_minus)

    @property
    def measured_visibility(self) -> float:
        return measured_visibility(self.intensity_plus, self.intensity_minus)

    @property
    def total_separation(self) -> float:
        return math.sqrt(2.0) * self.per_bd_displacement


_CALIBRATION_HEADER = ("per_bd_displacement_mm", "intensity_plus", "intensity_minus")


def load_bd_calibration(path=None) -> tuple[CalibrationRow, ...]:
    """Load displacer calibration rows; defaults to the packaged table."""
    packaged = resources.files(__package__).joinpath("data/bd_calibration.csv")
    with resources.as_file(packaged) as default:
        source = default if path is None else path
        _, rows = read_table(source, _CALIBRATION_HEADER, (float, float, float))
    if not rows:
        raise ValueError(f"{source}: no calibration rows")
    try:
        return tuple(CalibrationRow(*row) for row in rows)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
