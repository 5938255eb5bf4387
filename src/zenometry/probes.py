"""Probe states, dephasing evolution, and parity measurement.

Two probe strategies over N qubits: a GHZ state read out through the global
parity ``X^(x)N``, whose fringe oscillates at ``N * omega * t`` and decays as
``exp(-N gamma(t))``, and independent ``|+>`` qubits read out one at a time,
oscillating at ``omega * t`` and decaying as ``exp(-gamma(t))``.  Fusion
imperfections are modelled by a white-noise GHZ state whose parity visibility
is ``v**(N/2)``.

Besides the closed-form fringe, a dense density-matrix path evolves states
through the same channel with explicit Kraus operators; it shares no algebra
with the analytic expressions and exists to cross-check them.
"""

from __future__ import annotations

import math
import mmap

from ._numpy import np
from ._record import InitVar, record
from .decay import DecayModel
from .fringes import _STRATEGIES, FringeDataset, estimates_from_counts
from .rng import FRINGE_SETTINGS, StreamFamily

__all__ = [
    "ORACLE_MAX_QUBITS",
    "CapacityError",
    "ProbeSpec",
    "WhiteNoiseGhzParams",
    "DensityMatrix",
    "ghz_density_matrix",
    "evolve_oracle",
    "parity_expectation_dm",
    "parity_expectation_analytic",
    "sample_fringe",
    "synthetic_fringe",
    "witness_expectation",
    "witness_from_settings",
    "fidelity_bound",
]

# Dense states are exact but exponential in N: 4096x4096, 256 MiB, at the cap.
# ghz_density_matrix and evolve_oracle build their states on demand-zero pages
# of a POSIX private anonymous mapping and write only the nonzero entries, so
# only the pages under those (16 MiB of a GHZ state at the cap) become
# resident; validation reads the rest from the kernel's shared zero page.
# README gives the measured time and memory budget.
ORACLE_MAX_QUBITS = 12


class CapacityError(ValueError):
    """Raised when a dense density-matrix exceeds the supported qubit count."""


@record
class ProbeSpec:
    """Probe strategy, qubit count, and initial fringe visibility."""

    strategy: str
    n_qubits: int
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        if int(self.n_qubits) < 1:
            raise ValueError("n_qubits must be >= 1")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        v = float(self.visibility)
        if not 0.0 <= v <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        object.__setattr__(self, "visibility", v)

    @property
    def fringe_frequency(self) -> int:
        """N for the GHZ parity fringe, 1 for the per-qubit product fringe."""
        return self.n_qubits if self.strategy == "ghz" else 1


@record
class WhiteNoiseGhzParams:
    """GHZ preparation diluted by white noise from imperfect fusion."""

    n_qubits: int
    fusion_visibility: float

    def __post_init__(self) -> None:
        if int(self.n_qubits) < 1:
            raise ValueError("n_qubits must be >= 1")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        v = float(self.fusion_visibility)
        if not 0.0 <= v <= 1.0:
            raise ValueError("fusion visibility must lie in [0, 1]")
        object.__setattr__(self, "fusion_visibility", v)

    @property
    def parity_visibility(self) -> float:
        """Visibility of the N-qubit parity fringe: ``v**(N/2)``."""
        return self.fusion_visibility ** (self.n_qubits / 2.0)

    @property
    def witness(self) -> float:
        """``witness_expectation(ghz_density_matrix(self))`` without the state.

        The state has parity ``V`` and corner populations ``c = (1 - V) /
        2**N + V / 2``; the sums run in the dense route's order, so the two
        agree by ``repr``.  ``ldexp`` keeps ``c`` finite where ``2**N``
        overflows a float (N >= 1024).
        """
        n = self.n_qubits
        if n < 2:
            raise ValueError("the witness is undefined for a single qubit")
        v = self.parity_visibility
        c = math.ldexp(1.0 - v, -n) + 0.5 * v
        return witness_from_settings(0.5 * v + 0.5 * v, c, c)


@record(eq=False)
class DensityMatrix:
    """Validated dense N-qubit density matrix (read-only storage).

    The constructor checks the input's shape and the qubit cap, and only
    then copies it, so an input over the cap is refused before any copy.
    It checks the copy for unit trace and Hermiticity to 1e-12, comparing
    every pair of entries one block of rows at a time.
    Positivity is not verified here because it needs a full
    eigendecomposition; call :meth:`min_eigenvalue` when that check
    matters.  ``_owned=True`` is for arrays built inside this module that no
    caller holds: it skips the copy and takes the array as it is.
    """

    matrix: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("density matrix must be square")
        dim = shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise ValueError("dimension must be a power of two, at least 2")
        if n > ORACLE_MAX_QUBITS:
            raise CapacityError(
                f"{n} qubits exceeds the dense-matrix capacity of "
                f"{ORACLE_MAX_QUBITS}"
            )
        if _owned:
            m = self.matrix
        else:
            # C order: the dense path reshapes the matrix into views.
            m = np.array(self.matrix, dtype=complex, order="C")
        if not abs(np.trace(m) - 1.0) <= 1e-12:
            raise ValueError("trace must equal 1 within 1e-12")
        if not _is_hermitian(m, 1e-12):
            raise ValueError("matrix must be Hermitian within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


# Entries per row block of the Hermiticity check: a block's temporaries peak
# near 192 KiB whatever the matrix size.  Larger blocks raise the peak RSS of
# small oracle runs: 1 << 16 read 1.9 MiB more than this on an N = 6..9 run.
_CHECK_BLOCK = 1 << 12


def _is_hermitian(m: np.ndarray, tol: float) -> bool:
    """``max |m - m^dagger| <= tol``, checked one block of rows at a time.

    Block ``i:j`` compares rows ``i:j`` with columns ``i:j`` on and right of
    the diagonal, which covers every pair once.  The conjugate is taken of
    the contiguous rows: on the strided columns numpy takes it through an
    extra buffer as large as the result.  A NaN entry fails the check.  The
    side of ``m`` must be a power of two, so that the block height divides
    it.
    """
    dim = m.shape[0]
    rows = min(dim, max(1, _CHECK_BLOCK // dim))
    for i in range(0, dim, rows):
        j = i + rows
        if not np.abs(m[i:j, i:].conj() - m[i:, i:j].T).max() <= tol:
            return False
    return True


def _zero_mapped(dim: int) -> np.ndarray:
    """A writable C-ordered ``dim x dim`` complex zero matrix on demand-zero
    pages of a POSIX private anonymous mapping.

    A page becomes resident only when an entry on it is written; reads of
    the others map the kernel's shared zero page.  ``np.zeros`` would give
    the same values, but numpy asks for transparent huge pages on large
    arrays, and one write there makes a whole 2 MiB page resident.
    """
    # MAP_PRIVATE, not mmap's default MAP_SHARED: a shared anonymous mapping
    # is shmem, whose read faults allocate pages.  A transparent huge page
    # would make each diagonal write fault in and zero 2 MiB; mmap defines
    # the advice against them only where the system has it (Linux).
    buf = mmap.mmap(-1, 16 * dim * dim,
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=complex).reshape(dim, dim)


def ghz_density_matrix(params: WhiteNoiseGhzParams) -> DensityMatrix:
    """White-noise GHZ state ``V |GHZ><GHZ| + (1 - V) I / 2**N``.

    The mixing weight is the parity visibility ``V = v**(N/2)``, so the
    parity fringe of the returned state has amplitude exactly ``V``.

    The state lives on the zero-page mapping of :func:`_zero_mapped`: only
    the pages that hold the diagonal become resident (16 MiB of the 256 MiB
    matrix at N = 12), and the Hermiticity check reads every other entry
    from the kernel's shared zero page.
    """
    n = params.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise CapacityError(
            f"{n} qubits exceeds the dense-matrix capacity of {ORACLE_MAX_QUBITS}"
        )
    dim = 2**n
    v = params.parity_visibility
    rho = _zero_mapped(dim)
    np.fill_diagonal(rho, (1.0 - v) / dim)
    rho[0, 0] += 0.5 * v
    rho[-1, -1] += 0.5 * v
    rho[0, -1] += 0.5 * v
    rho[-1, 0] += 0.5 * v
    return DensityMatrix(rho, _owned=True)


def evolve_oracle(dm: DensityMatrix, model: DecayModel, omega: float,
                  t: float) -> DensityMatrix:
    """Evolve a state by phase accumulation plus independent dephasing.

    Each qubit picks up the phase ``P = diag(exp(-i omega t / 2),
    exp(+i omega t / 2))`` and then passes through the dephasing channel with
    Kraus operators ``K0 = sqrt((1 + f)/2) I`` and ``K1 = sqrt((1 - f)/2) Z``
    where ``f = exp(-gamma(t))``.  Both maps act on one qubit at a time, so
    each qubit takes one pass with the Kraus set ``{K0 P, K1 P}``.  Both ops
    are diagonal, so the pass multiplies ``rho_ab`` by ``F[a, b] = sum_k
    (K_k P)[a, a] conj((K_k P)[b, b])``, with ``a`` and ``b`` the qubit's row
    and column bits: one element-wise multiply of the state's copy in place.
    Qubit 0 is the most significant bit of an index.  Deliberately built from
    the Kraus operators and independent of the closed-form fringe expressions.

    Since every op is diagonal, an entry that starts at zero stays zero.  The
    copy lives on the zero-page mapping of :func:`_zero_mapped`, and only the
    input's nonzero entries are copied and multiplied, each by the same
    factors in the same order as an unmasked pass.  So only the pages under
    them become resident (a GHZ state's diagonal and corners), and a zero
    entry, ``-0.0`` included, comes out ``+0.0``; an unmasked pass could turn
    it into ``-0.0``, since ``0 * F`` has a real part of ``-0.0`` where
    ``Re F < 0``.  The ``bool`` mask, ``4**N`` bytes, is the one array numpy
    allocates.  A dense input saves no memory and takes longer through the
    masked passes.
    """
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    f = model.coherence_factor(t)
    half = 0.5 * omega * float(t)
    phase = np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    k0 = math.sqrt((1.0 + f) / 2.0) * np.eye(2)
    k1 = math.sqrt((1.0 - f) / 2.0) * np.array([[1.0, 0.0], [0.0, -1.0]])
    # einsum, not @: a first BLAS call raises a process's peak RSS by 0.5 MiB
    d = np.einsum("kaj,ja->ka", np.array([k0, k1]), phase)
    factor = np.einsum("ka,kb->ab", d, d.conj()).reshape(2, 1, 1, 2, 1)
    nonzero = dm.matrix != 0
    rho = _zero_mapped(dm.dim)
    np.copyto(rho, dm.matrix, where=nonzero)
    for q in range(dm.n_qubits):
        left = 2**q
        right = dm.dim // (2 * left)
        shape = (left, 2, right, left, 2, right)
        view = rho.reshape(shape)
        np.multiply(view, factor, out=view, where=nonzero.reshape(shape))
    return DensityMatrix(rho, _owned=True)


def parity_expectation_dm(dm: DensityMatrix) -> float:
    """``Tr(rho X^(x)N)``: the sum of the anti-diagonal of ``rho``."""
    total = complex(np.trace(np.fliplr(dm.matrix)))
    if abs(total.imag) > 1e-12:
        raise ValueError("parity expectation came out complex")
    return total.real


def parity_expectation_analytic(spec: ProbeSpec, model: DecayModel,
                                omega: float, t: float) -> float:
    """Closed-form fringe ``V0 exp(-m gamma(t)) cos(m omega t)``.

    ``m`` is the fringe frequency: N for a GHZ probe (all qubits dephase and
    accumulate phase together), 1 for each qubit of a product probe.
    """
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    m = spec.fringe_frequency
    gamma = model.gamma_at(t)
    return spec.visibility * math.exp(-m * gamma) * math.cos(m * omega * float(t))


def _fringe_probabilities(spec: ProbeSpec, model: DecayModel, t: float,
                          theta) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("theta grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta values must be finite")
    m = spec.fringe_frequency
    amplitude = spec.visibility * math.exp(-m * model.gamma_at(t))
    expectation = amplitude * np.cos(m * theta)
    return theta, expectation


def sample_fringe(spec: ProbeSpec, model: DecayModel, t: float, theta_grid,
                  shots_per_setting: int, seed: int) -> FringeDataset:
    """Simulate one fringe scan with Poisson/binomial counting noise.

    Setting ``j`` gets its own counter-based stream
    ``substream(seed, FRINGE_SETTINGS, j)``: first the recorded event number
    ``M_j ~ Poisson(shots_per_setting)``, then
    ``n+ ~ Binomial(M_j, (1 + <P>(theta_j)) / 2)``.  A zero-event draw leaves
    the setting missing.  The streams are drawn from one rekeyed
    :class:`~zenometry.rng.StreamFamily`, which leaves them unchanged.  Fully
    deterministic given the seed, regardless of evaluation order.
    """
    shots = int(shots_per_setting)
    if shots < 1:
        raise ValueError("shots_per_setting must be >= 1")
    if seed is None:
        raise ValueError("sampling requires a seed")
    theta, expectation = _fringe_probabilities(spec, model, t, theta_grid)
    p_plus = np.clip((1.0 + expectation) / 2.0, 0.0, 1.0)
    n_plus = np.zeros(theta.size, dtype=np.int64)
    n_total = np.zeros(theta.size, dtype=np.int64)
    family = StreamFamily(seed, FRINGE_SETTINGS)
    for j in range(theta.size):
        gen = family.at(j)
        events = int(gen.poisson(shots))
        n_total[j] = events
        if events:
            n_plus[j] = int(gen.binomial(events, p_plus[j]))
    estimate, stderr = estimates_from_counts(n_plus, n_total)
    return FringeDataset(
        strategy=spec.strategy,
        n_qubits=spec.n_qubits,
        interrogation_time=float(t),
        visibility=spec.visibility,
        theta=theta,
        n_plus=n_plus,
        n_total=n_total,
        estimate=estimate,
        stderr=stderr,
        seed=int(seed),
    )


def synthetic_fringe(spec: ProbeSpec, model: DecayModel, t: float,
                     theta_grid) -> FringeDataset:
    """Noiseless fringe (the infinite-shot limit); stderr is zero."""
    theta, expectation = _fringe_probabilities(spec, model, t, theta_grid)
    zeros = np.zeros(theta.size, dtype=np.int64)
    return FringeDataset(
        strategy=spec.strategy,
        n_qubits=spec.n_qubits,
        interrogation_time=float(t),
        visibility=spec.visibility,
        theta=theta,
        n_plus=zeros,
        n_total=zeros,
        estimate=expectation,
        stderr=np.zeros(theta.size),
    )


def witness_expectation(dm: DensityMatrix) -> float:
    """GHZ stabilizer witness ``3 - (<X^(x)N> + 1) - 2 (p_0..0 + p_1..1)``.

    Negative values certify GHZ-class entanglement.  The result lies in
    [-1, 3]; it needs two measurement settings, global X parity and the
    computational-basis corner populations.
    """
    if dm.n_qubits < 2:
        raise ValueError("the witness is undefined for a single qubit")
    parity = parity_expectation_dm(dm)
    p0 = dm.matrix[0, 0].real
    p1 = dm.matrix[-1, -1].real
    return float(3.0 - (parity + 1.0) - 2.0 * (p0 + p1))


def witness_from_settings(x_expectation: float, p_all_zero: float,
                          p_all_one: float) -> float:
    """Witness value from the two measured settings directly."""
    x = float(x_expectation)
    p0 = float(p_all_zero)
    p1 = float(p_all_one)
    if not math.isfinite(x) or abs(x) > 1.0:
        raise ValueError("parity expectation must lie in [-1, 1]")
    for p in (p0, p1):
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValueError("populations must lie in [0, 1]")
    if p0 + p1 > 1.0 + 1e-12:
        raise ValueError("corner populations cannot exceed 1 in total")
    return 3.0 - (x + 1.0) - 2.0 * (p0 + p1)


def fidelity_bound(witness_value: float) -> float:
    """Lower bound ``(1 - <W>) / 2`` on the GHZ fidelity, clipped to [0, 1]."""
    w = float(witness_value)
    if not math.isfinite(w) or w < -1.0 or w > 3.0:
        raise ValueError("witness value must lie in [-1, 3]")
    return min(max((1.0 - w) / 2.0, 0.0), 1.0)
