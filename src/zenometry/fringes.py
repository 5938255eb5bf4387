"""Parity-fringe datasets: one estimate of <P> per phase setting."""

from __future__ import annotations

import math

from ._numpy import np
from ._record import record, replace
from .tables import convert_cell, read_table, write_table

__all__ = ["FringeDataset", "estimates_from_counts"]

_STRATEGIES = ("ghz", "product")
_CSV_HEADER = ("theta", "n_plus", "n_total", "estimate", "stderr")
_METADATA_TYPES = (("n_qubits", int), ("interrogation_time", float),
                   ("visibility", float), ("seed", int),
                   ("noise_divisor", float))


def estimates_from_counts(n_plus, n_total) -> tuple[np.ndarray, np.ndarray]:
    """Parity estimate ``2 n+/M - 1`` and its binomial standard error.

    Settings with zero recorded events yield NaN in both outputs (missing).
    Saturated counts (every event in one port) use a Jeffreys-centred
    proportion ``(n+ + 1/2) / (M + 1)`` inside the error formula so the
    standard error stays positive.
    """
    n_plus = np.asarray(n_plus, dtype=np.int64)
    n_total = np.asarray(n_total, dtype=np.int64)
    if n_plus.shape != n_total.shape:
        raise ValueError("count arrays must have the same shape")
    if np.any(n_plus < 0) or np.any(n_total < 0) or np.any(n_plus > n_total):
        raise ValueError("need 0 <= n_plus <= n_total")
    estimate = np.full(n_plus.shape, np.nan)
    stderr = np.full(n_plus.shape, np.nan)
    ok = n_total > 0
    p = n_plus[ok] / n_total[ok]
    estimate[ok] = 2.0 * p - 1.0
    saturated = (n_plus[ok] == 0) | (n_plus[ok] == n_total[ok])
    centre = np.where(saturated, (n_plus[ok] + 0.5) / (n_total[ok] + 1.0), p)
    stderr[ok] = 2.0 * np.sqrt(centre * (1.0 - centre) / n_total[ok])
    return estimate, stderr


def _frozen_array(values, dtype):
    arr = np.asarray(values, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


@record(eq=False)
class FringeDataset:
    """Measured (or synthesized) parity fringe over a phase grid.

    ``estimate`` holds per-setting values of ``<P>``; a NaN estimate marks a
    missing setting (for sampled data that is a run where no events were
    recorded).  ``stderr`` is zero for noiseless synthetic data and NaN where
    the estimate is missing.  ``noise_divisor`` records the visibility factor
    already divided out of the estimates, and ``clamped`` flags points pushed
    back into [-1, 1] by that division.
    """

    strategy: str
    n_qubits: int
    interrogation_time: float
    visibility: float | None
    theta: np.ndarray
    n_plus: np.ndarray
    n_total: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray
    seed: int | None = None
    noise_divisor: float | None = None
    clamped: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        if int(self.n_qubits) < 1:
            raise ValueError("n_qubits must be >= 1")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        t = float(self.interrogation_time)
        if not math.isfinite(t) or t < 0.0:
            raise ValueError("interrogation time must be finite and >= 0")
        object.__setattr__(self, "interrogation_time", t)
        if self.visibility is not None:
            v = float(self.visibility)
            if not 0.0 <= v <= 1.0:
                raise ValueError("visibility must lie in [0, 1]")
            object.__setattr__(self, "visibility", v)
        theta = _frozen_array(self.theta, float)
        n_plus = _frozen_array(self.n_plus, np.int64)
        n_total = _frozen_array(self.n_total, np.int64)
        estimate = _frozen_array(self.estimate, float)
        stderr = _frozen_array(self.stderr, float)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a non-empty 1-D array")
        for arr in (n_plus, n_total, estimate, stderr):
            if arr.shape != theta.shape:
                raise ValueError("all columns must match the theta grid")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta values must be finite")
        if np.any(np.diff(theta) <= 0.0):
            raise ValueError("theta values must be strictly increasing")
        if np.any(n_plus < 0) or np.any(n_total < 0) or np.any(n_plus > n_total):
            raise ValueError("need 0 <= n_plus <= n_total")
        usable = np.isfinite(estimate)
        if np.any(np.abs(estimate[usable]) > 1.0 + 1e-12):
            raise ValueError("estimates must lie in [-1, 1]")
        se = stderr[usable]
        if np.any(~np.isfinite(se)) or np.any(se < 0.0):
            raise ValueError("stderr must be finite and >= 0 where usable")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "n_plus", n_plus)
        object.__setattr__(self, "n_total", n_total)
        object.__setattr__(self, "estimate", estimate)
        object.__setattr__(self, "stderr", stderr)
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.noise_divisor is not None:
            d = float(self.noise_divisor)
            if not 0.0 < d <= 1.0:
                raise ValueError("noise divisor must lie in (0, 1]")
            object.__setattr__(self, "noise_divisor", d)
        if self.clamped is not None:
            flags = _frozen_array(self.clamped, bool)
            if flags.shape != theta.shape:
                raise ValueError("clamp flags must match the theta grid")
            object.__setattr__(self, "clamped", flags)

    @property
    def usable(self) -> np.ndarray:
        """Boolean mask of settings that carry an estimate."""
        return np.isfinite(self.estimate)

    @property
    def fringe_frequency(self) -> int:
        """Oscillations per unit phase: N for GHZ probes, 1 per qubit else."""
        return self.n_qubits if self.strategy == "ghz" else 1

    def to_csv(self, path, extra_comments=()) -> None:
        """Write the dataset with metadata in ``# key=value`` comment rows.

        Clamp flags, when set, take one ``# clamped=`` row with a ``0`` or
        ``1`` per setting; a dataset without them writes no such row.
        """
        meta = [
            ("strategy", self.strategy),
            ("n_qubits", self.n_qubits),
            ("interrogation_time", self.interrogation_time),
            ("visibility", self.visibility),
            ("seed", self.seed),
            ("noise_divisor", self.noise_divisor),
        ]
        if self.clamped is not None:
            flags = "".join("1" if f else "0" for f in self.clamped)
            meta.append(("clamped", flags))
        columns = (self.theta, self.n_plus, self.n_total, self.estimate,
                   self.stderr)
        write_table(path, [*extra_comments, *meta], _CSV_HEADER,
                    zip(*(column.tolist() for column in columns)))

    @classmethod
    def from_csv(cls, path) -> "FringeDataset":
        """Inverse of :meth:`to_csv`."""
        meta, rows = read_table(path, _CSV_HEADER,
                                (float, int, int, float, float))
        if not rows:
            raise ValueError(f"{path}: no data rows")
        for key in ("strategy", "n_qubits", "interrogation_time"):
            if not meta.get(key):
                raise ValueError(f"{path}: missing '# {key}=' metadata")
        scalars = {key: convert_cell(path, key, convert, meta[key])
                   if meta.get(key) else None
                   for key, convert in _METADATA_TYPES}
        if "clamped" in meta:
            flags = meta["clamped"]
            if set(flags) - {"0", "1"}:
                raise ValueError(f"{path}: clamped: expected a 0 or 1 per row, "
                                 f"got {flags!r}")
            scalars["clamped"] = [f == "1" for f in flags]
        theta, n_plus, n_total, estimate, stderr = zip(*rows)
        try:
            return cls(strategy=meta["strategy"], theta=theta, n_plus=n_plus,
                       n_total=n_total, estimate=estimate, stderr=stderr,
                       **scalars)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def replace(self, **changes) -> "FringeDataset":
        """Copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)
