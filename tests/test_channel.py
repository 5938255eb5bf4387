"""Displacer-channel geometry, overlaps, and the calibration table."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from zenometry import (
    BdPairGeometry,
    GaussianMode,
    Quadratic,
    TabulatedMode,
    displacement_from_thickness,
    effective_time,
    load_bd_calibration,
    measured_visibility,
    overlap_gaussian,
    overlap_numeric,
)
from zenometry.channel import _simpson

MODE = GaussianMode(1.05)


class TestOverlapClosedForm:
    def test_unit_at_zero_shift(self):
        assert overlap_gaussian(0.0, MODE) == 1.0

    def test_reference_value(self):
        # x0 = sqrt(2) * 0.74 for the fourth calibration row
        assert overlap_gaussian(1.0465, MODE) == pytest.approx(0.6086, abs=1e-4)

    def test_strictly_decreasing_in_shift(self):
        shifts = np.linspace(0.0, 4.0, 41)
        values = [overlap_gaussian(x, MODE) for x in shifts]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_waist(self):
        waists = np.linspace(0.4, 3.0, 27)
        values = [overlap_gaussian(1.0, GaussianMode(w)) for w in waists]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_symmetric_in_shift_sign(self):
        assert overlap_gaussian(-0.8, MODE) == overlap_gaussian(0.8, MODE)


class TestOverlapNumeric:
    def test_matches_closed_form_on_gaussian(self):
        profile = TabulatedMode.gaussian(MODE)
        for x0 in np.linspace(0.0, 3.0 * MODE.waist, 16):
            assert overlap_numeric(profile, float(x0)) == pytest.approx(
                overlap_gaussian(float(x0), MODE), abs=1e-3)

    def test_normalized_profile(self):
        profile = TabulatedMode.gaussian(MODE)
        # the zero-shift overlap is the intensity integral
        assert overlap_numeric(profile, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_top_hat_gives_triangular_overlap(self):
        # flat amplitude on [-1, 1]: overlap decays linearly, 1 - x0/2
        x = np.linspace(-2.0, 2.0, 2001)
        amp = np.where(np.abs(x) <= 1.0, 1.0, 0.0)
        profile = TabulatedMode(x, amp)
        dx = profile.spacing
        for shift in (0.0, 125 * dx, 250 * dx, 500 * dx):
            assert overlap_numeric(profile, shift) == pytest.approx(
                1.0 - shift / 2.0, abs=5e-3)

    def test_shift_beyond_support_rejected(self):
        profile = TabulatedMode.gaussian(MODE, half_width=3.0, points=301)
        with pytest.raises(ValueError, match="support"):
            overlap_numeric(profile, 7.0)

    @pytest.mark.parametrize("points", [3, 4, 5, 6, 7, 8, 2000, 2001, 4096, 4097])
    def test_simpson_matches_scipy(self, points):
        x = np.linspace(-1.3, 2.1, points)
        f = np.exp(-x * x) * (1.0 + 0.3 * np.sin(5.0 * x))
        assert _simpson(f, x[1] - x[0]) == pytest.approx(
            simpson(f, x=x), rel=1e-12, abs=0.0)

    def test_even_sample_count_normalizes(self):
        profile = TabulatedMode([0.0, 0.5, 1.0, 1.5], [1.0, 2.0, 1.5, 0.5])
        assert overlap_numeric(profile, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TabulatedMode([0.0, 1.0], [1.0, 1.0])  # too few samples
        with pytest.raises(ValueError):
            TabulatedMode([0.0, 0.5, 2.0], [1.0, 1.0, 1.0])  # uneven grid
        with pytest.raises(ValueError):
            TabulatedMode([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])  # no intensity

    def test_profile_csv_round_trip(self, tmp_path):
        path = tmp_path / "mode.csv"
        path.write_text("x,amplitude\n-1.0,0.5\n0.0,1.0\n1.0,0.5\n")
        profile = TabulatedMode.from_csv(path)
        assert profile.positions.tolist() == [-1.0, 0.0, 1.0]
        bad = tmp_path / "bad.csv"
        bad.write_text("x,amp\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            TabulatedMode.from_csv(bad)


class TestGeometry:
    def test_walkoff_calibration(self):
        assert displacement_from_thickness(9.4103) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)
        assert displacement_from_thickness(4.70515) == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=1e-12)
        assert displacement_from_thickness(0.0) == 0.0

    def test_pair_separation_exact(self):
        geom = BdPairGeometry(0.74)
        assert geom.total_separation == math.sqrt(2.0) * 0.74

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            BdPairGeometry(-0.1)
        with pytest.raises(ValueError):
            displacement_from_thickness(-1.0)
        with pytest.raises(ValueError):
            GaussianMode(0.0)

    def test_effective_time_composition(self):
        # the channel realises gamma = (x0/w)^2 / 2: quadratic family, c=1/2
        half = Quadratic(0.5)
        for x0 in np.linspace(0.0, 3.0, 13):
            t = effective_time(float(x0), MODE)
            assert half.coherence_factor(t) == pytest.approx(
                overlap_gaussian(float(x0), MODE), abs=1e-12)

    def test_effective_time_reference_value(self):
        x0 = displacement_from_thickness(9.4103)
        assert effective_time(x0, MODE) == pytest.approx(
            math.sqrt(2.0) / 1.05, abs=1e-12)


class TestCalibrationTable:
    def test_bundled_table_shape(self):
        rows = load_bd_calibration()
        assert len(rows) == 8
        displacements = [r.per_bd_displacement for r in rows]
        assert displacements == sorted(displacements)

    def test_predictions_track_measurements(self):
        rows = load_bd_calibration()
        for row in rows:
            pred = overlap_gaussian(row.geometry.total_separation, MODE)
            assert abs(pred - row.measured_visibility) <= 0.05

    def test_visibility_arithmetic(self):
        assert measured_visibility(4.09, 0.116) == pytest.approx(
            (4.09 - 0.116) / (4.09 + 0.116), rel=1e-15)
        with pytest.raises(ValueError):
            measured_visibility(-1.0, 0.5)
        with pytest.raises(ValueError):
            measured_visibility(0.0, 0.0)

    def test_malformed_table_reports_line(self, tmp_path):
        bad = tmp_path / "table.csv"
        bad.write_text(
            "per_bd_displacement_mm,intensity_plus,intensity_minus\n"
            "0.2,4.0,0.1\n0.4,oops,0.2\n")
        with pytest.raises(ValueError, match=":3"):
            load_bd_calibration(bad)

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "table.csv"
        bad.write_text("d,ip,im\n0.2,4.0,0.1\n")
        with pytest.raises(ValueError, match="header"):
            load_bd_calibration(bad)
