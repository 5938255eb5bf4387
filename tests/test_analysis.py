"""Scaling fits, reference bounds, comparisons, and the advantage sweep."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from zenometry import (
    Markovian,
    NoiseSweepRow,
    Quadratic,
    ReferenceBounds,
    advantage_crossing,
    noise_sweep,
    reference_bounds,
    relative_resolution,
    scaling_fit,
)

ANCHOR = 2.0 * math.sqrt(math.e)


class TestScalingFit:
    def test_exact_power_laws(self):
        ns = np.arange(1, 9)
        for slope in (-1.5, -1.0, -2.0):
            points = [(int(n), 3.0 * float(n) ** slope, None) for n in ns]
            fit = scaling_fit(points)
            assert fit.slope == pytest.approx(slope, abs=1e-12)
            assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
            assert fit.slope_stderr <= 1e-10

    def test_weighted_fit_uses_relative_errors(self):
        ns = np.arange(1, 7)
        rng = np.random.default_rng(7)
        true = ANCHOR * ns ** -1.5
        noisy = true * np.exp(rng.normal(0.0, 0.01, size=ns.size))
        points = [(int(n), float(v), float(0.01 * v))
                  for n, v in zip(ns, noisy)]
        fit = scaling_fit(points)
        assert fit.slope == pytest.approx(-1.5, abs=0.05)
        assert 0.0 < fit.slope_stderr < 0.02

    def test_validation(self):
        with pytest.raises(ValueError, match="three"):
            scaling_fit([(1, 1.0, None), (2, 0.5, None)])
        with pytest.raises(ValueError):
            scaling_fit([(1, 1.0, None), (2, -0.5, None), (3, 0.2, None)])
        with pytest.raises(ValueError):
            scaling_fit([(0, 1.0, None), (2, 0.5, None), (3, 0.2, None)])
        with pytest.raises(ValueError):
            scaling_fit([(2, 1.0, None), (2, 0.5, None), (2, 0.2, None)])
        with pytest.raises(ValueError, match="finite"):
            scaling_fit([(1, 1.0, 0.1), (2, 0.5, math.inf), (3, 0.2, 0.1)])

    def test_incomplete_errors_fall_back_to_ols(self):
        points = [(1, 2.0, 0.1), (2, 1.1, None), (4, 0.48, 0.1), (8, 0.26, 0.1)]
        mixed = scaling_fit(points)
        plain = scaling_fit([(n, v, None) for n, v, _ in points])
        assert mixed.slope == plain.slope
        assert mixed.slope_stderr == plain.slope_stderr


class TestReferenceBounds:
    def test_ordering_and_anchor(self):
        ns = list(range(1, 11))
        bounds = reference_bounds(ns, 1.0)
        assert list(bounds.n_values) == ns
        assert bounds.sql[0] == bounds.zl[0] == bounds.hl[0]
        assert bounds.sql[0] == pytest.approx(ANCHOR, rel=1e-15)
        for i, n in enumerate(ns):
            assert bounds.hl[i] <= bounds.zl[i] <= bounds.sql[i]
            assert bounds.sql[i] == pytest.approx(ANCHOR / n, rel=1e-12)
            assert bounds.zl[i] == pytest.approx(ANCHOR / n**1.5, rel=1e-12)
            assert bounds.hl[i] == pytest.approx(ANCHOR / n**2, rel=1e-12)

    def test_coefficient_scaling(self):
        base = reference_bounds([4], 1.0)
        scaled = reference_bounds([4], 4.0)
        assert scaled.zl[0] == pytest.approx(2.0 * base.zl[0], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_bounds([], 1.0)
        with pytest.raises(ValueError):
            reference_bounds([0, 1], 1.0)
        with pytest.raises(ValueError):
            reference_bounds([1, 2], 0.0)

    def test_overflowing_anchor_refused(self):
        # 2 sqrt(e c) is inf from c = 1e308 on, which left every bound inf
        assert math.isfinite(reference_bounds([1], 6e307).sql[0])
        for call in (lambda: reference_bounds([1, 2], 1e308),
                     lambda: noise_sweep(0.9, [1, 2], 1e308)):
            with pytest.raises(ValueError, match=r"2 sqrt\(e c\) overflows"):
                call()


class TestRelativeResolution:
    def test_sqrt_n_for_matched_calibration(self):
        # reference rate exp(-1/2) puts both channels on the same footing at N=1
        test = Quadratic(1.0)
        reference = Markovian(math.exp(-0.5))
        for n in range(1, 7):
            r2 = relative_resolution(n, test, reference)
            assert r2 == pytest.approx(math.sqrt(n), rel=1e-12)
        assert relative_resolution(1, test, reference) == pytest.approx(
            1.0, rel=1e-12)

    def test_general_pair(self):
        # ratio of the two closed forms at their own optima: reference over test
        n = 5
        expected = (2.0 * math.e * 0.3 / n) / (
            2.0 * math.sqrt(math.e * 2.0) / n**1.5)
        assert relative_resolution(n, Quadratic(2.0), Markovian(0.3)) \
            == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_resolution(0, Markovian(1.0), Quadratic(1.0))


def per_row_sweep(v, ns, c=1.0):
    """The rows ``noise_sweep`` built one N at a time before it held columns."""
    anchor = 2.0 * math.sqrt(math.e * c)
    rows = []
    for n in ns:
        sql = anchor / n
        denominator = n**1.5 * v**n
        d2 = anchor / denominator if denominator > 0.0 else math.inf
        rows.append(NoiseSweepRow(n, d2, sql, d2 < sql))
    return tuple(rows)


class TestNoiseSweep:
    # v = 0.1 underflows v**N (to an infinite variance) well before N = 400
    @pytest.mark.parametrize("v, c", [(0.1, 1.0), (0.9, 1.0), (0.9, 0.7),
                                      (1.0, 1.0)])
    def test_columns_match_per_row_reference(self, v, c):
        ns = range(1, 401)
        sweep = noise_sweep(v, ns, c)
        expected = per_row_sweep(v, ns, c)
        assert sweep.rows == expected
        assert sweep.n_values == tuple(r.n for r in expected)
        assert sweep.d2omega_t_ghz == tuple(r.d2omega_t_ghz for r in expected)
        assert sweep.bound_sql == tuple(r.bound_sql for r in expected)
        assert sweep.beats_sql == tuple(r.beats_sql for r in expected)
        # exact types, so the table writer takes its one-type column paths
        assert {type(x) for x in sweep.n_values} == {int}
        assert {type(x) for x in sweep.d2omega_t_ghz + sweep.bound_sql} \
            == {float}
        assert {type(x) for x in sweep.beats_sql} == {bool}
        if v == 0.1:
            assert math.isinf(sweep.d2omega_t_ghz[-1])
        if v == 1.0:
            zl = reference_bounds(ns, 1.0).zl
            assert all(d2 == z for d2, z in zip(sweep.d2omega_t_ghz, zl,
                                                strict=True))

    @pytest.mark.parametrize("v, c", [(0.1, 1.0), (0.9, 0.7), (1.0, 1.0)])
    def test_reference_bounds_give_the_same_sweep(self, v, c):
        ns = range(1, 401)
        bounds = reference_bounds(ns, c)
        sweep = noise_sweep(v, bounds, c)
        assert sweep == noise_sweep(v, ns, c)
        # the shared columns are reused, not rebuilt
        assert sweep.n_values is bounds.n_values
        assert sweep.bound_sql is bounds.sql

    def test_mismatched_reference_bounds_rejected(self):
        bounds = reference_bounds(range(1, 10), 0.7)
        ragged = ReferenceBounds(bounds.n_values, bounds.sql[:1], bounds.zl,
                                 bounds.hl)
        empty = ReferenceBounds((), (), (), ())
        for wrong, c in ((bounds, 1.0), (ragged, 0.7), (empty, 0.7)):
            with pytest.raises(ValueError, match="must be reference_bounds"):
                noise_sweep(0.9, wrong, c)

    def test_ideal_visibility_reproduces_zeno_bound(self):
        ns = list(range(1, 51))
        sweep = noise_sweep(1.0, ns)
        bounds = reference_bounds(ns, 1.0)
        for row, zl in zip(sweep.rows, bounds.zl):
            assert row.d2omega_t_ghz == zl
        assert sweep.crossing is None

    def test_degraded_value(self):
        sweep = noise_sweep(0.9, [6])
        expected = ANCHOR / (6**1.5 * 0.9**6)
        assert sweep.rows[0].d2omega_t_ghz == pytest.approx(expected,
                                                            rel=1e-12)

    def test_monotone_in_visibility(self):
        ns = [2, 4, 8]
        values = []
        for v in (0.8, 0.9, 0.95, 1.0):
            sweep = noise_sweep(v, ns)
            values.append([row.d2omega_t_ghz for row in sweep.rows])
        arr = np.array(values)
        assert np.all(np.diff(arr, axis=0) < 0.0)

    def test_beats_flag_matches_margin(self):
        for v in (0.9, 0.99):
            sweep = noise_sweep(v, list(range(1, 200)))
            for row in sweep.rows:
                margin = math.sqrt(row.n) * v**row.n
                assert row.beats_sql == (margin > 1.0)

    def test_underflow_is_harmless(self):
        sweep = noise_sweep(0.1, list(range(1, 400)))
        tail = sweep.rows[-1]
        assert math.isinf(tail.d2omega_t_ghz)
        assert not tail.beats_sql
        assert sweep.crossing is None or sweep.crossing < 10


class TestAdvantageCrossing:
    def test_reference_value(self):
        assert advantage_crossing(0.99) == 280

    def test_against_continuous_root(self):
        for v in (0.9, 0.95, 0.99, 0.999):
            n_star = advantage_crossing(v)
            assert n_star is not None

            def margin(x):
                return 0.5 * math.log(x) + x * math.log(v)

            peak = -0.5 / math.log(v)
            root = brentq(margin, peak, 100.0 * peak + 100.0)
            assert abs(root - n_star) <= 1.0
            assert margin(n_star) > 0.0
            assert margin(n_star + 1) <= 0.0

    @given(v=st.floats(0.5, 0.999))
    def test_matches_integer_scan(self, v):
        # the crossing grows with v and is 4165 at v = 0.999
        log_v = math.log(v)
        advantaged = [n for n in range(1, 5000)
                      if 0.5 * math.log(n) + n * log_v > 0.0]
        assert advantage_crossing(v) == (max(advantaged) if advantaged
                                         else None)

    def test_no_crossing_cases(self):
        assert advantage_crossing(1.0) is None
        # so lossy that even the peak is below break-even
        assert advantage_crossing(0.2) is None

    def test_consistent_with_sweep_flags(self):
        v = 0.99
        n_star = advantage_crossing(v)
        sweep = noise_sweep(v, list(range(1, 1001)))
        beats = {row.n: row.beats_sql for row in sweep.rows}
        assert beats[n_star]
        assert all(not beats[n] for n in range(n_star + 1, 1001))
        assert beats[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            advantage_crossing(0.0)
        with pytest.raises(ValueError):
            advantage_crossing(1.1)
