"""Scaling fits, reference bounds, comparisons, and the advantage sweep."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from zenometry import (
    Markovian,
    Quadratic,
    advantage_crossing,
    noise_sweep,
    reference_bounds,
    relative_resolution,
    scaling_fit,
)
from zenometry import analysis

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
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                scaling_fit([(1, 1.0, None), (bad, 0.5, None), (3, 0.2, None)])
            with pytest.raises(ValueError, match="finite and positive"):
                scaling_fit([(1, 1.0, 0.1), (2, bad, 0.1), (3, 0.2, 0.1)])

    def test_overflowing_weights_refused(self):
        # 1 / (1e-160)**2 overflows to inf
        for stderr in (1e-160, 1e-200):
            with pytest.raises(ValueError, match="weights overflow"):
                scaling_fit([(1, 1.0, stderr), (2, 0.5, stderr), (3, 0.2, stderr)])

    @pytest.mark.parametrize("power", [-330, 330])
    def test_extreme_finite_weights_scale_exactly(self, power):
        # weights near 1e200 or 1e-195 overflow or underflow the normal
        # equations' determinant unless they are rescaled first
        points = [(1, 2.0, 0.1), (2, 1.1, 0.03), (4, 0.48, 0.02), (8, 0.26, 0.01)]
        base = scaling_fit(points)
        scaled = scaling_fit([(n, v, math.ldexp(s, power)) for n, v, s in points])
        assert (scaled.slope, scaled.intercept) == (base.slope, base.intercept)
        assert scaled.slope_stderr == math.ldexp(base.slope_stderr, power)
        assert scaled.chi2 == math.ldexp(base.chi2, -2 * power)

    @pytest.mark.parametrize("errors", ["weighted", "unweighted", "mixed"])
    def test_matches_linalg_reference(self, errors):
        rng = np.random.default_rng(["weighted", "unweighted", "mixed"].index(errors))
        for _ in range(50):
            ns = np.sort(rng.choice(np.arange(1, 65), size=rng.integers(3, 12),
                                    replace=False))
            values = ANCHOR * ns ** rng.uniform(-2.0, -1.0) * np.exp(
                rng.normal(0.0, 0.05, ns.size))
            stderrs = [float(v) * rng.uniform(0.01, 0.1) for v in values]
            if errors == "unweighted":
                stderrs = [None] * ns.size
            elif errors == "mixed":
                stderrs[rng.integers(ns.size)] = rng.choice([None, 0.0])
            fit = scaling_fit(zip(ns.tolist(), values.tolist(), stderrs))

            x, y = np.log(ns), np.log(values)
            w = (np.array([s / v for s, v in zip(stderrs, values)]) ** -2.0
                 if errors == "weighted" else np.ones(ns.size))
            design = np.column_stack((np.ones(ns.size), x))
            root = np.sqrt(w)
            (intercept, slope), chi2, _, _ = np.linalg.lstsq(
                design * root[:, None], y * root, rcond=None)
            cov = np.linalg.inv(design.T @ (design * w[:, None]))
            if errors != "weighted":
                cov *= chi2[0] / (ns.size - 2)
            assert fit.slope == pytest.approx(slope, rel=1e-12)
            assert fit.intercept == pytest.approx(intercept, rel=1e-12)
            assert fit.slope_stderr == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-12)
            assert fit.chi2 == pytest.approx(chi2[0], rel=1e-12)
            assert fit.dof == ns.size - 2

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
    """``(N, d2omega_t_ghz, bound_sql, beats_sql)`` computed one N at a time."""
    anchor = 2.0 * math.sqrt(math.e * c)
    rows = []
    for n in ns:
        sql = anchor / n
        denominator = n**1.5 * v**n
        d2 = anchor / denominator if denominator > 0.0 else math.inf
        rows.append((n, d2, sql, d2 < sql))
    return rows


class TestNoiseSweep:
    # v = 0.1 underflows v**N (to an infinite variance) well before N = 400
    @pytest.mark.parametrize("v, c", [(0.1, 1.0), (0.9, 1.0), (0.9, 0.7),
                                      (1.0, 1.0)])
    def test_columns_match_per_row_reference(self, v, c):
        ns = range(1, 401)
        sweep = noise_sweep(v, ns, c)
        bounds = reference_bounds(ns, c)
        expected = per_row_sweep(v, ns, c)
        assert list(zip(bounds.n_values, sweep.d2omega_t_ghz, bounds.sql,
                        sweep.beats_sql, strict=True)) == expected
        # exact types, so the table writer takes its one-type column paths
        assert {type(x) for x in bounds.n_values} == {int}
        assert {type(x) for x in bounds.sql} == {float}
        assert {type(x) for x in sweep.d2omega_t_ghz} == {float}
        assert {type(x) for x in sweep.beats_sql} == {bool}
        if v == 0.1:
            assert math.isinf(sweep.d2omega_t_ghz[-1])
        if v == 1.0:
            assert all(d2 == z for d2, z in zip(sweep.d2omega_t_ghz,
                                                bounds.zl, strict=True))

    @pytest.mark.parametrize("v, c", [(0.1, 1.0), (0.9, 0.7), (1.0, 1.0)])
    def test_reference_bounds_give_the_same_sweep(self, v, c, monkeypatch):
        ns = range(1, 401)
        sql = reference_bounds(ns, c).sql

        def rebuilt(*args, **kwargs):
            raise AssertionError("noise_sweep built reference bounds")

        # the flags take the SQL as reference_bounds computes it, without
        # building the bounds
        monkeypatch.setattr(analysis, "reference_bounds", rebuilt)
        sweep = noise_sweep(v, ns, c)
        assert sweep.beats_sql == tuple(
            d < bound for d, bound in zip(sweep.d2omega_t_ghz, sql, strict=True))

    def test_ideal_visibility_reproduces_zeno_bound(self):
        ns = list(range(1, 51))
        sweep = noise_sweep(1.0, ns)
        assert sweep.d2omega_t_ghz == reference_bounds(ns, 1.0).zl
        assert sweep.crossing is None

    def test_degraded_value(self):
        sweep = noise_sweep(0.9, [6])
        expected = ANCHOR / (6**1.5 * 0.9**6)
        assert sweep.d2omega_t_ghz[0] == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_visibility(self):
        ns = [2, 4, 8]
        arr = np.array([noise_sweep(v, ns).d2omega_t_ghz
                        for v in (0.8, 0.9, 0.95, 1.0)])
        assert np.all(np.diff(arr, axis=0) < 0.0)

    def test_beats_flag_matches_margin(self):
        ns = list(range(1, 200))
        for v in (0.9, 0.99):
            sweep = noise_sweep(v, ns)
            assert sweep.beats_sql == tuple(math.sqrt(n) * v**n > 1.0
                                            for n in ns)

    def test_underflow_is_harmless(self):
        sweep = noise_sweep(0.1, list(range(1, 400)))
        assert math.isinf(sweep.d2omega_t_ghz[-1])
        assert not sweep.beats_sql[-1]
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
        ns = range(1, 1001)
        beats = dict(zip(ns, noise_sweep(v, ns).beats_sql, strict=True))
        assert beats[n_star]
        assert all(not beats[n] for n in range(n_star + 1, 1001))
        assert beats[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            advantage_crossing(0.0)
        with pytest.raises(ValueError):
            advantage_crossing(1.1)
