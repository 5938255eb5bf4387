"""Probe states, the dense evolution oracle, sampling, and the witness."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import zenometry
from zenometry import probes
from zenometry import (
    CapacityError,
    DensityMatrix,
    Markovian,
    ProbeSpec,
    Quadratic,
    Tabulated,
    WhiteNoiseGhzParams,
    evolve_oracle,
    fidelity_bound,
    ghz_density_matrix,
    optimal_time,
    parity_expectation_analytic,
    parity_expectation_dm,
    sample_fringe,
    sensitivity_closed_form,
    synthetic_fringe,
    witness_expectation,
    witness_from_settings,
)
from zenometry.rng import FRINGE_SETTINGS, substream


def zeros_ghz_matrix(n, fusion_visibility):
    """The white-noise GHZ matrix built on ``np.zeros``, step by step as
    ``ghz_density_matrix`` builds it on its mapping."""
    dim = 2**n
    v = WhiteNoiseGhzParams(n, fusion_visibility).parity_visibility
    rho = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(rho, (1.0 - v) / dim)
    rho[0, 0] += 0.5 * v
    rho[-1, -1] += 0.5 * v
    rho[0, -1] += 0.5 * v
    rho[-1, 0] += 0.5 * v
    return rho


def random_state(rng, n):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def dense_hermitian(rng, n):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / (2.0 * dim)


def x_shaped_hermitian(rng, n):
    """A Hermitian matrix that is zero off its diagonal and its two corners,
    as the white-noise GHZ state is, with entries of the dense one's scale."""
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(m, rng.normal(size=dim) / dim)
    corner = complex(rng.normal(), rng.normal()) / (2.0 * dim)
    m[0, -1] += corner
    m[-1, 0] += corner.conjugate()
    return m


def assert_check_matches_naive(m, tol, expected, n):
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        naive = bool(np.max(np.abs(m - m.conj().T)) <= tol)
        assert naive is expected
        assert probes._is_hermitian(m, tol) is expected, n


def embed(op, qubit, n):
    """``I (x) .. (x) op (x) .. (x) I`` with ``op`` on ``qubit`` (0 leftmost)."""
    return np.kron(np.kron(np.eye(2**qubit), op), np.eye(2 ** (n - qubit - 1)))


def quantum_fisher(state, model, omega, t, h=1e-5):
    """QFI in omega of the oracle's output, from ``eigh`` and a central
    difference: ``sum 2 |<i| d rho |j>|**2 / (l_i + l_j)`` over pairs whose
    eigenvalues sum above 1e-12."""
    rho = evolve_oracle(state, model, omega, t).matrix
    drho = (evolve_oracle(state, model, omega + h, t).matrix
            - evolve_oracle(state, model, omega - h, t).matrix) / (2.0 * h)
    lam, vec = np.linalg.eigh(rho)
    d = vec.conj().T @ drho @ vec
    total = lam[:, None] + lam[None, :]
    keep = total > 1e-12
    return float(np.sum(2.0 * np.abs(d[keep]) ** 2 / total[keep]))


def reference_apply(rho, ops, qubit):
    """Kraus sum on one qubit through a six-index einsum per op."""
    dim = rho.shape[0]
    left = 2**qubit
    right = dim // (2 * left)
    t = rho.reshape(left, 2, right, left, 2, right)
    out = np.zeros_like(t)
    for op in ops:
        out += np.einsum("xa,iajkbl,yb->ixjkyl", op, t, op.conj())
    return out.reshape(dim, dim)


def reference_evolve(rho, model, omega, t):
    """Two passes per qubit: every phase rotation, then every dephasing."""
    f = model.coherence_factor(t)
    half = 0.5 * omega * t
    phase = np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    k0 = math.sqrt((1.0 + f) / 2.0) * np.eye(2)
    k1 = math.sqrt((1.0 - f) / 2.0) * np.array([[1.0, 0.0], [0.0, -1.0]])
    n = rho.shape[0].bit_length() - 1
    rho = np.array(rho, dtype=complex)
    for q in range(n):
        rho = reference_apply(rho, (phase,), q)
    for q in range(n):
        rho = reference_apply(rho, (k0, k1), q)
    return rho


def unmasked_evolve(dm, model, omega, t):
    """``evolve_oracle``'s per-qubit pass without the mask: a full copy of
    the state, every entry multiplied in place."""
    f = model.coherence_factor(t)
    half = 0.5 * omega * t
    phase = np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    k0 = math.sqrt((1.0 + f) / 2.0) * np.eye(2)
    k1 = math.sqrt((1.0 - f) / 2.0) * np.array([[1.0, 0.0], [0.0, -1.0]])
    d = np.einsum("kaj,ja->ka", np.array([k0, k1]), phase)
    factor = np.einsum("ka,kb->ab", d, d.conj()).reshape(2, 1, 1, 2, 1)
    rho = dm.matrix.copy(order="C")
    for q in range(dm.n_qubits):
        left = 2**q
        right = dm.dim // (2 * left)
        view = rho.reshape(left, 2, right, left, 2, right)
        view *= factor
    return rho


def kraus_sum(rho, model, omega, t):
    """Each qubit's Kraus set ``{K0 P, K1 P}``, embedded as a full matrix."""
    n = rho.shape[0].bit_length() - 1
    f = model.coherence_factor(t)
    phase = np.diag([np.exp(-0.5j * omega * t), np.exp(0.5j * omega * t)])
    kraus = [math.sqrt((1.0 + f) / 2.0) * phase,
             math.sqrt((1.0 - f) / 2.0) * np.diag([1.0, -1.0]) @ phase]
    for q in range(n):
        bigs = [embed(op, q, n) for op in kraus]
        rho = sum(big @ rho @ big.conj().T for big in bigs)
    return rho


class TestSpecs:
    def test_probe_spec_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec("cat", 2)
        with pytest.raises(ValueError):
            ProbeSpec("ghz", 0)
        with pytest.raises(ValueError):
            ProbeSpec("ghz", 2, 1.5)
        assert ProbeSpec("ghz", 4).fringe_frequency == 4
        assert ProbeSpec("product", 4).fringe_frequency == 1

    def test_parity_visibility(self):
        assert WhiteNoiseGhzParams(4, 0.9).parity_visibility == pytest.approx(
            0.81, rel=1e-15)
        assert WhiteNoiseGhzParams(2, 0.81).parity_visibility == pytest.approx(
            0.81, rel=1e-15)
        assert WhiteNoiseGhzParams(6, 1.0).parity_visibility == 1.0


class TestDensityMatrix:
    def test_structure_of_white_noise_ghz(self):
        dm = ghz_density_matrix(WhiteNoiseGhzParams(3, 1.0))
        m = dm.matrix
        assert m[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert m[7, 7] == pytest.approx(0.5, abs=1e-15)
        assert m[0, 7] == pytest.approx(0.5, abs=1e-15)
        assert m[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_fully_mixed_limit(self):
        dm = ghz_density_matrix(WhiteNoiseGhzParams(2, 0.0))
        assert np.allclose(dm.matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_parity_equals_visibility(self):
        for n in (1, 2, 3, 5):
            for v in (1.0, 0.9, 0.5):
                dm = ghz_density_matrix(WhiteNoiseGhzParams(n, v))
                assert parity_expectation_dm(dm) == pytest.approx(
                    v ** (n / 2.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3.0)  # not a power of two
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        bad = np.array([[0.5, 0.5j], [0.5j, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(bad)  # not Hermitian

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            ghz_density_matrix(WhiteNoiseGhzParams(13, 1.0))

    def test_matrix_is_read_only(self):
        dm = ghz_density_matrix(WhiteNoiseGhzParams(2, 1.0))
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 9.0

    def test_source_array_is_copied(self):
        a = np.eye(4, dtype=complex) / 4.0
        dm = DensityMatrix(a)
        a[0, 0] = 9.0
        a[0, 1] = 1.0
        assert np.array_equal(dm.matrix, np.eye(4) / 4.0)

    @pytest.mark.parametrize("row, col, delta", [
        (0, 1, 1e-9),            # first row block, right of the diagonal
        (1, 0, 1e-9j),           # first row block, left of the diagonal
        (0, -1, 1e-9),           # first row, last column
        (-1, 0, 1e-9),           # last row, first column
        (-1, -2, 1e-9),          # last row block, left of the diagonal
        (-2, -1, -1e-9j),        # last row block, right of the diagonal
    ])
    def test_blockwise_hermiticity_finds_every_violation(self, row, col, delta):
        dim = 1024
        assert dim // max(1, probes._CHECK_BLOCK // dim) >= 4  # several blocks
        m = np.eye(dim, dtype=complex) / dim
        m[row, col] += delta
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)
        m[row, col] -= delta
        m[row, col] += 1e-13  # within tolerance
        DensityMatrix(m)

    def test_blockwise_hermiticity_checks_the_diagonal(self):
        m = np.eye(1024, dtype=complex) / 1024
        m[-1, -1] += 1e-9j  # opposite imaginary parts keep the trace real
        m[-2, -2] -= 1e-9j
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    # (row, col) of each planted entry as a function of the dimension.  From
    # N = 7 on the check runs in several row blocks; below that, in one.
    SPOTS = {
        "first block, above": lambda dim: (0, dim - 1),
        "first block, below": lambda dim: (1, 0),
        "last block, above": lambda dim: (dim - 2, dim - 1),
        "last block, below": lambda dim: (dim - 1, 0),
        "diagonal": lambda dim: (dim - 1, dim - 1),
    }

    @pytest.mark.parametrize("spot, delta, expected", [
        ("first block, above", 1e-9, False),
        ("first block, below", 1e-9j, False),
        ("last block, above", -1e-9j, False),
        ("last block, below", 1e-9, False),
        ("diagonal", 1e-9j, False),
        ("first block, above", math.nan, False),
        ("last block, below", math.inf, False),
        ("last block, above", complex(0.0, -math.inf), False),
        ("diagonal", math.inf, False),
        ("first block, above", 0.999e-12, True),
        ("first block, above", 1.001e-12, False),
        ("last block, below", 0.999e-12j, True),
        ("last block, below", 1.001e-12j, False),
        ("first block, above", 0.8e-12 + 0.8e-12j, False),  # modulus 1.13e-12
        ("last block, below", 0.7e-12 - 0.7e-12j, True),    # modulus 0.99e-12
    ])
    def test_check_matches_naive_reference(self, spot, delta, expected):
        rng = np.random.default_rng(14)
        tol = 1e-12
        for n in range(1, 11):
            for m in (dense_hermitian(rng, n), x_shaped_hermitian(rng, n)):
                assert probes._is_hermitian(m, tol)
                m[self.SPOTS[spot](m.shape[0])] += delta
                assert_check_matches_naive(m, tol, expected, n)

    # An entry planted alone in a row block whose rectangles off the
    # diagonal square are otherwise zero, far from the diagonal.  -0.0
    # differs from its 0.0 partner by exactly 0, so it passes.
    @pytest.mark.parametrize("value, expected", [
        (complex(-0.0, 0.0), True),
        (complex(0.0, -0.0), True),
        (-0.999e-12, True),
        (-1e-9, False),
        (-1e-9j, False),
        (math.nan, False),
        (complex(0.0, math.nan), False),
        (-math.inf, False),
    ])
    @pytest.mark.parametrize("side", ["above", "below"])
    def test_entry_planted_in_a_zero_block(self, side, value, expected):
        rng = np.random.default_rng(15)
        for n in range(3, 11):  # from 7 on, the check runs in several blocks
            m = x_shaped_hermitian(rng, n)
            dim = m.shape[0]
            # row dim/2 starts a block: plant in the block's second row
            near, far = dim // 2 + 1, 3 * dim // 4
            spot = (near, far) if side == "above" else (far, near)
            m[spot] = value  # assigned: 0.0 + -0.0 would give 0.0
            assert_check_matches_naive(m, 1e-12, expected, n)

    def test_over_the_cap_refused_before_the_copy(self):
        n = probes.ORACLE_MAX_QUBITS + 1
        # demand-zero pages: 512 MiB of address space, none of it touched
        big = np.zeros((2**n, 2**n))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                DensityMatrix(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_fortran_ordered_input_evolves_alike(self):
        state = random_state(np.random.default_rng(8), 3)
        flipped = DensityMatrix(np.asfortranarray(state.matrix))
        assert flipped.matrix.flags.c_contiguous
        a = evolve_oracle(state, Quadratic(1.0), 0.3, 0.5).matrix
        b = evolve_oracle(flipped, Quadratic(1.0), 0.3, 0.5).matrix
        assert np.array_equal(a, b)

    def test_nan_entries_rejected(self):
        m = np.full((2, 2), 0.5, dtype=complex)
        m[0, 1] = math.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.full((2, 2), math.nan))


class TestOracle:
    def test_plus_state_coherence_decay(self):
        plus = DensityMatrix(np.full((2, 2), 0.5))
        out = evolve_oracle(plus, Markovian(1.0), omega=0.0, t=0.5)
        assert out.matrix[0, 1] == pytest.approx(0.5 * math.exp(-0.5), abs=1e-12)
        assert out.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_analytic_fringe(self):
        rng = np.random.default_rng(11)
        models = [Markovian(0.7), Quadratic(1.3),
                  Tabulated([(0.0, 0.0), (0.6, 0.3), (1.5, 1.4)])]
        for n in range(1, 9):
            for v in (1.0, 0.9):
                for model in models:
                    omega = float(rng.uniform(-3.0, 3.0))
                    t = float(rng.uniform(0.01, 1.4))
                    state = ghz_density_matrix(WhiteNoiseGhzParams(n, v))
                    evolved = evolve_oracle(state, model, omega, t)
                    spec = ProbeSpec("ghz", n, v ** (n / 2.0))
                    assert parity_expectation_dm(evolved) == pytest.approx(
                        parity_expectation_analytic(spec, model, omega, t),
                        abs=1e-12)

    def test_channel_legality_on_random_states(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for _ in range(5):
                state = random_state(rng, n)
                out = evolve_oracle(state, Quadratic(0.9),
                                    omega=float(rng.normal()), t=0.7)
                assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
                assert out.min_eigenvalue() >= -1e-10
                assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 6])
    def test_diagonal_pass_matches_explicit_kron(self, n):
        # The pass multiplies by a factor on one qubit's bits; the explicit
        # Kraus sum, embedded qubit by qubit, pins the row/column roles (the
        # phase's sign at omega != 0) and that every qubit's bits are reached.
        rng = np.random.default_rng(21)
        state = random_state(rng, n)
        model = Quadratic(0.9)
        omega = float(rng.uniform(0.5, 3.0))
        expected = kraus_sum(state.matrix, model, omega, 0.7)
        got = evolve_oracle(state, model, omega, 0.7).matrix
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_nonzero_entries_match_the_unmasked_pass_to_the_bit(self):
        rng = np.random.default_rng(29)
        states = [ghz_density_matrix(WhiteNoiseGhzParams(n, v))
                  for n in range(1, 10) for v in (1.0, 0.95)]
        states += [random_state(rng, n) for n in range(1, 7)]
        for state in states:
            for model in (Markovian(0.7), Quadratic(1.3)):
                omega = float(rng.uniform(-3.0, 3.0))
                t = float(rng.uniform(0.01, 1.4))
                got = evolve_oracle(state, model, omega, t).matrix
                expected = unmasked_evolve(state, model, omega, t)
                nonzero = state.matrix != 0
                assert np.array_equal(got[nonzero], expected[nonzero])
                assert not np.any(got[~nonzero])

    @pytest.mark.parametrize("n", [3, 6])
    def test_zero_entries_stay_positive_zero(self, n):
        # Scattered symmetric zeros off the diagonal, one of them -0.0: the
        # pass leaves each as the mapping's +0.0, and the rest still match
        # the explicit Kraus sum.
        rng = np.random.default_rng(37)
        dim = 2**n
        rho = random_state(rng, n).matrix.copy()
        rows, cols = np.triu_indices(dim, 1)
        pick = rng.choice(rows.size, size=max(2, rows.size // 5), replace=False)
        rho[rows[pick], cols[pick]] = 0.0
        rho[cols[pick], rows[pick]] = 0.0
        i, j = rows[pick[0]], cols[pick[0]]
        rho[i, j] = complex(-0.0, 0.0)
        rho[j, i] = complex(-0.0, -0.0)
        state = DensityMatrix(rho)
        assert np.signbit(state.matrix[i, j].real)
        model = Quadratic(0.9)
        omega = float(rng.uniform(0.5, 3.0))
        got = evolve_oracle(state, model, omega, 0.7).matrix
        np.testing.assert_allclose(got, kraus_sum(state.matrix, model, omega,
                                                  0.7), rtol=0, atol=1e-13)
        zeros = got[state.matrix == 0]
        assert zeros.size == 2 * pick.size
        assert not np.any(zeros)
        assert not np.any(np.signbit(zeros.real) | np.signbit(zeros.imag))

    def test_input_left_unchanged_and_read_only(self):
        state = random_state(np.random.default_rng(4), 4)
        before = state.matrix.copy()
        out = evolve_oracle(state, Quadratic(1.0), 0.9, 0.4)
        assert np.array_equal(state.matrix, before)
        assert not state.matrix.flags.writeable
        assert not out.matrix.flags.writeable
        assert not np.shares_memory(out.matrix, state.matrix)

    @pytest.mark.parametrize("model", [
        Markovian(0.7), Quadratic(1.3),
        Tabulated([(0.0, 0.0), (0.6, 0.3), (1.5, 1.4)])],
        ids=["markovian", "quadratic", "tabulated"])
    def test_fused_passes_match_two_pass_reference(self, model):
        rng = np.random.default_rng(17)
        for n in range(1, 7):
            state = random_state(rng, n)
            omega = float(rng.uniform(-3.0, 3.0))
            t = float(rng.uniform(0.01, 1.4))
            fused = evolve_oracle(state, model, omega, t).matrix
            reference = reference_evolve(state.matrix, model, omega, t)
            assert np.max(np.abs(fused - reference)) <= 1e-14

    def test_zero_time_is_identity_plus_phase_zero(self):
        rng = np.random.default_rng(6)
        state = random_state(rng, 2)
        out = evolve_oracle(state, Quadratic(1.0), omega=2.0, t=0.0)
        assert np.allclose(out.matrix, state.matrix, atol=1e-13)


class TestQuantumFisher:
    """``t / F_Q`` against the parity read-out's closed-form ``d2omega_t``."""

    MODEL = Quadratic(1.0)
    OMEGA = 0.3

    def ratio(self, state, spec):
        t = optimal_time(self.MODEL, spec.fringe_frequency)
        f_q = quantum_fisher(state, self.MODEL, self.OMEGA, t)
        return t / f_q / sensitivity_closed_form(spec, self.MODEL, t)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_parity_reaches_qfi_for_pure_ghz(self, n):
        state = ghz_density_matrix(WhiteNoiseGhzParams(n, 1.0))
        assert self.ratio(state, ProbeSpec("ghz", n)) == pytest.approx(
            1.0, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_parity_reaches_qfi_for_product(self, n):
        plus = np.full((2, 2), 0.5)
        m = plus
        for _ in range(n - 1):
            m = np.kron(m, plus)
        state = DensityMatrix(m)
        assert self.ratio(state, ProbeSpec("product", n)) == pytest.approx(
            1.0, rel=1e-9)

    @pytest.mark.parametrize("n, expected", [(2, 0.950), (4, 0.834),
                                             (6, 0.737)])
    def test_white_noise_parity_falls_short_of_qfi(self, n, expected):
        # With preparation noise the parity Fisher is a fraction
        # V + 2**(1 - N) (1 - V) of the QFI: twice the weight of the GHZ
        # pair {|0..0>, |1..1>}, the only block that carries the phase.
        params = WhiteNoiseGhzParams(n, 0.9)
        v = params.parity_visibility
        ratio = self.ratio(ghz_density_matrix(params), ProbeSpec("ghz", n, v))
        assert ratio == pytest.approx(v + 2.0 ** (1 - n) * (1.0 - v), rel=1e-9)
        assert ratio == pytest.approx(expected, abs=5e-4)


class TestAnalyticFringe:
    def test_visibility_at_zero_time(self):
        spec = ProbeSpec("ghz", 6, 0.7968)
        assert parity_expectation_analytic(spec, Quadratic(1.0), 1.0, 0.0) \
            == pytest.approx(0.7968, rel=1e-15)

    def test_node_at_quarter_fringe(self):
        spec = ProbeSpec("ghz", 4, 1.0)
        omega = math.pi / 2.0  # N * omega * t = pi/2 at t = 0.25
        value = parity_expectation_analytic(spec, Quadratic(1.0), omega, 0.25)
        assert abs(value) <= 1e-12

    def test_product_oscillates_at_single_qubit_frequency(self):
        model = Quadratic(0.8)
        spec = ProbeSpec("product", 5, 1.0)
        value = parity_expectation_analytic(spec, model, 2.0, 0.3)
        expected = math.exp(-model.gamma_at(0.3)) * math.cos(2.0 * 0.3)
        assert value == pytest.approx(expected, rel=1e-14)


class TestSampling:
    def test_deterministic_given_seed(self):
        spec = ProbeSpec("ghz", 3, 1.0)
        grid = np.linspace(0.0, math.pi, 25)
        a = sample_fringe(spec, Quadratic(1.0), 0.2, grid, 10_000, seed=31)
        b = sample_fringe(spec, Quadratic(1.0), 0.2, grid, 10_000, seed=31)
        assert np.array_equal(a.n_plus, b.n_plus)
        assert np.array_equal(a.n_total, b.n_total)
        c = sample_fringe(spec, Quadratic(1.0), 0.2, grid, 10_000, seed=32)
        assert not np.array_equal(a.n_plus, c.n_plus)

    def test_counting_statistics_are_sound(self):
        # standardized residuals over 100 settings behave like chi-square
        spec = ProbeSpec("ghz", 2, 1.0)
        model = Quadratic(1.0)
        t = 0.25
        grid = np.linspace(0.0, math.pi, 100)
        shots = 10_000
        data = sample_fringe(spec, model, t, grid, shots, seed=97)
        amp = math.exp(-2.0 * model.gamma_at(t))
        p = (1.0 + amp * np.cos(2.0 * grid)) / 2.0
        usable = (data.n_total > 0) & (p > 1e-6) & (p < 1 - 1e-6)
        z = (data.n_plus[usable] - data.n_total[usable] * p[usable]) / np.sqrt(
            data.n_total[usable] * p[usable] * (1.0 - p[usable]))
        statistic = float(np.sum(z**2))
        assert statistic <= chi2.ppf(0.99, int(np.sum(usable)))

    def test_estimates_converge_to_analytic(self):
        spec = ProbeSpec("ghz", 2, 1.0)
        model = Quadratic(1.0)
        t = 0.25
        grid = np.linspace(0.0, math.pi, 100)
        data = sample_fringe(spec, model, t, grid, 10_000_000, seed=12)
        amp = math.exp(-2.0 * model.gamma_at(t))
        truth = amp * np.cos(2.0 * grid)
        ok = data.usable
        within = np.abs(data.estimate[ok] - truth[ok]) <= 3.0 * data.stderr[ok]
        assert np.mean(within) >= 0.99

    def test_zero_event_settings_marked_missing(self):
        spec = ProbeSpec("ghz", 1, 1.0)
        grid = np.linspace(0.0, math.pi, 40)
        data = sample_fringe(spec, Quadratic(1.0), 0.3, grid, 1, seed=3)
        missing = ~data.usable
        assert np.any(missing)
        assert np.all(data.n_total[missing] == 0)
        assert np.all(np.isnan(data.stderr[missing]))

    @pytest.mark.parametrize("spec, shots, seed", [
        (ProbeSpec("ghz", 4, 0.8671), 1_000_000, 42),
        (ProbeSpec("product", 3, 0.9), 1_000_000, 7),
        (ProbeSpec("ghz", 1, 1.0), 1, 3),
    ], ids=["ghz-1e6", "product-1e6", "ghz-1-shot"])
    def test_counts_follow_per_setting_substreams(self, spec, shots, seed):
        model = Quadratic(1.0)
        t = 0.3
        grid = np.linspace(0.0, math.pi, 40)
        data = sample_fringe(spec, model, t, grid, shots, seed=seed)
        m = spec.fringe_frequency
        amplitude = spec.visibility * math.exp(-m * model.gamma_at(t))
        p_plus = np.clip((1.0 + amplitude * np.cos(m * grid)) / 2.0, 0.0, 1.0)
        n_plus = np.zeros(grid.size, dtype=np.int64)
        n_total = np.zeros(grid.size, dtype=np.int64)
        for j in range(grid.size):
            gen = substream(seed, FRINGE_SETTINGS, j)
            n_total[j] = gen.poisson(shots)
            if n_total[j]:
                n_plus[j] = gen.binomial(n_total[j], p_plus[j])
        if shots == 1:
            assert np.any(n_total == 0)
        np.testing.assert_array_equal(data.n_total, n_total)
        np.testing.assert_array_equal(data.n_plus, n_plus)

    def test_shots_validation(self):
        spec = ProbeSpec("ghz", 1, 1.0)
        with pytest.raises(ValueError):
            sample_fringe(spec, Quadratic(1.0), 0.3, [0.0, 0.1], 0, seed=1)

    def test_synthetic_matches_analytic(self):
        spec = ProbeSpec("ghz", 3, 0.9)
        model = Quadratic(1.0)
        grid = np.linspace(0.0, math.pi, 25)
        data = synthetic_fringe(spec, model, 0.2, grid)
        for theta, est in zip(data.theta, data.estimate):
            expected = 0.9 * math.exp(-3 * model.gamma_at(0.2)) * math.cos(3 * theta)
            assert est == pytest.approx(expected, abs=1e-14)
        assert np.all(data.stderr == 0.0)


# Fusion visibilities the closed-form witness is pinned at: both ends, the
# smallest subnormal, a tiny normal, typical values, and a seeded handful.
PIN_VISIBILITIES = (0.0, 5e-324, 1e-300, 0.1, 0.5, 0.9, 0.95, 0.999999, 1.0,
                    *np.random.default_rng(20260816).random(4).tolist())


class TestWitness:
    def test_perfect_ghz_reaches_floor(self):
        for n in range(2, 7):
            dm = ghz_density_matrix(WhiteNoiseGhzParams(n, 1.0))
            w = witness_expectation(dm)
            assert w == pytest.approx(-1.0, abs=1e-12)
            assert fidelity_bound(w) == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_closed_form(self):
        for n in range(2, 7):
            for v in (1.0, 0.9, 0.7, 0.3):
                dm = ghz_density_matrix(WhiteNoiseGhzParams(n, v))
                big_v = v ** (n / 2.0)
                expected = 2.0 - 3.0 * big_v - 2.0 ** (2 - n) * (1.0 - big_v)
                assert witness_expectation(dm) == pytest.approx(
                    expected, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, probes.ORACLE_MAX_QUBITS + 1))
    def test_closed_form_property_is_the_oracle_to_the_bit(self, n):
        # the witness command reads the property, so its rows are the dense
        # oracle's values exactly
        for v in PIN_VISIBILITIES:
            params = WhiteNoiseGhzParams(n, v)
            dense = witness_expectation(ghz_density_matrix(params))
            assert repr(params.witness) == repr(dense), v

    @pytest.mark.parametrize("n", [1024, 2000])
    def test_closed_form_property_past_the_float_range_of_2_to_the_n(self, n):
        # 2.0**n overflows from n = 1024; the property tends to 2 - 3 V
        for v in (0.0, 0.5, 0.999, 1.0):
            params = WhiteNoiseGhzParams(n, v)
            w = params.witness
            assert math.isfinite(w)
            assert w == pytest.approx(2.0 - 3.0 * params.parity_visibility,
                                      abs=1e-15)

    def test_value_is_a_python_float(self):
        dm = ghz_density_matrix(WhiteNoiseGhzParams(4, 0.9))
        assert type(witness_expectation(dm)) is float
        assert type(WhiteNoiseGhzParams(4, 0.9).witness) is float

    def test_single_qubit_unsupported(self):
        dm = ghz_density_matrix(WhiteNoiseGhzParams(1, 1.0))
        with pytest.raises(ValueError):
            witness_expectation(dm)
        with pytest.raises(ValueError):
            WhiteNoiseGhzParams(1, 1.0).witness

    def test_from_settings(self):
        assert witness_from_settings(1.0, 0.5, 0.5) == pytest.approx(-1.0)
        with pytest.raises(ValueError):
            witness_from_settings(1.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            witness_from_settings(0.5, 0.7, 0.6)

    def test_fidelity_bound_values(self):
        assert fidelity_bound(-0.7052) == pytest.approx(0.8526, abs=1e-12)
        assert fidelity_bound(3.0) == 0.0  # clipped
        assert fidelity_bound(-1.0) == 1.0
        with pytest.raises(ValueError):
            fidelity_bound(3.5)
        with pytest.raises(ValueError):
            fidelity_bound(-1.5)


class TestDenseMemory:
    N = 10
    STATE_BYTES = 16 * 4**N

    def test_witness_route_holds_one_state(self):
        tracemalloc.start()
        try:
            witness_expectation(ghz_density_matrix(WhiteNoiseGhzParams(self.N, 0.9)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * self.STATE_BYTES

    def test_oracle_traces_only_its_mask(self):
        # The evolved copy lives on the zero-page mapping, which tracemalloc
        # does not see; the bool mask of nonzero entries, 4**N bytes, is left.
        state = ghz_density_matrix(WhiteNoiseGhzParams(self.N, 0.95))
        tracemalloc.start()
        try:
            evolve_oracle(state, Quadratic(1.0), 0.7, 0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4**self.N

    def test_hermiticity_check_temporaries_scale_with_the_block(self):
        # Each row block's temporaries are bounded by _CHECK_BLOCK, not by
        # the matrix; a larger block raises the oracle driver's peak RSS.
        m = dense_hermitian(np.random.default_rng(16), self.N)
        tracemalloc.start()
        try:
            assert probes._is_hermitian(m, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * probes._CHECK_BLOCK

    # Since the state lives in an mmap buffer, which tracemalloc does not
    # see, the tracemalloc test above no longer bounds the state's memory.
    # This one reads the kernel's high-water mark of resident memory in a
    # fresh interpreter, whose VmHWM starts at its own start-up.  It guards
    # that the mapping stays off transparent huge pages: built on np.zeros,
    # which numpy advises onto huge pages, the state read 255 MiB here.
    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="needs /proc/self/status")
    def test_witness_route_at_the_cap_keeps_the_state_off_most_pages(self):
        script = textwrap.dedent(f"""
            import zenometry as zm

            def vm_hwm_kib():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1])

            before = vm_hwm_kib()
            zm.witness_expectation(zm.ghz_density_matrix(
                zm.WhiteNoiseGhzParams({probes.ORACLE_MAX_QUBITS}, 0.9)))
            print(vm_hwm_kib() - before)
        """)
        src = str(Path(zenometry.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the diagonal's pages take 16 MiB of the 256 MiB state
        assert int(proc.stdout) <= 48 * 1024

    @pytest.mark.parametrize("v", [1.0, 0.95, 0.3, 0.0])
    def test_mapped_state_equals_zeros_construction(self, v):
        for n in range(1, 11):
            state = ghz_density_matrix(WhiteNoiseGhzParams(n, v))
            reference = zeros_ghz_matrix(n, v)
            m = state.matrix
            assert m.dtype == reference.dtype
            assert m.shape == reference.shape
            assert m.flags.c_contiguous
            assert not m.flags.writeable
            assert m.tobytes() == reference.tobytes()
            evolved = evolve_oracle(state, Quadratic(1.0), 0.7, 0.2)
            expected = evolve_oracle(DensityMatrix(reference), Quadratic(1.0),
                                     0.7, 0.2)
            assert evolved.matrix.tobytes() == expected.matrix.tobytes()
