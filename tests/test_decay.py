"""Decay-exponent models: values and family properties."""

import math

import numpy as np
import pytest

from zenometry import Markovian, Quadratic, Tabulated

TAB_SAMPLES = [(1.0, 0.3), (2.0, 0.8)]


def models_under_test():
    return [
        Markovian(0.5),
        Markovian(math.exp(-0.5)),
        Quadratic(1.0),
        Quadratic(0.37),
        Tabulated(TAB_SAMPLES),
        Tabulated([(0.0, 0.0), (0.5, 0.1), (0.8, 0.1), (2.5, 1.9)]),
    ]


class TestValues:
    def test_markovian_examples(self):
        m = Markovian(0.5)
        assert m.gamma_at(2.0) == pytest.approx(1.0, abs=1e-15)
        assert m.coherence_factor(2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_quadratic_examples(self):
        q = Quadratic(1.0)
        assert q.gamma_at(0.5) == pytest.approx(0.25, abs=1e-15)
        assert q.coherence_factor(0.5) == pytest.approx(math.exp(-0.25), rel=1e-15)
        assert q.gamma_at(0.0) == 0.0

    def test_tabulated_interpolation(self):
        tab = Tabulated(TAB_SAMPLES)
        assert tab.samples[0] == (0.0, 0.0)  # implied origin prepended
        assert tab.gamma_at(1.5) == pytest.approx(0.55, abs=1e-15)
        assert tab.gamma_at(0.5) == pytest.approx(0.15, abs=1e-15)
        assert tab.gamma_at(2.0) == pytest.approx(0.8, abs=1e-15)

    def test_tabulated_explicit_origin_kept(self):
        tab = Tabulated([(0.0, 0.0), (1.0, 0.2)])
        assert tab.samples == ((0.0, 0.0), (1.0, 0.2))


class TestProperties:
    def test_gamma_zero_at_origin(self):
        for model in models_under_test():
            assert model.gamma_at(0.0) == 0.0
            assert model.coherence_factor(0.0) == 1.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(2024)
        for model in models_under_test():
            hi = model.t_max if isinstance(model, Tabulated) else 5.0
            for _ in range(50):
                t1, t2 = np.sort(rng.uniform(0.0, hi, size=2))
                g1, g2 = model.gamma_at(t1), model.gamma_at(t2)
                assert 0.0 <= g1 <= g2
                c1, c2 = model.coherence_factor(t1), model.coherence_factor(t2)
                assert 0.0 < c2 <= c1 <= 1.0

    def test_markovian_semigroup_exact_on_dyadics(self):
        m = Markovian(0.75)
        assert m.gamma_at(0.25 + 0.5) == m.gamma_at(0.25) + m.gamma_at(0.5)

    def test_markovian_semigroup_general(self):
        rng = np.random.default_rng(7)
        m = Markovian(0.7)
        for _ in range(100):
            t1, t2 = rng.uniform(0.0, 3.0, size=2)
            assert m.gamma_at(t1 + t2) == pytest.approx(
                m.gamma_at(t1) + m.gamma_at(t2), rel=1e-14)

    def test_quadratic_violates_semigroup(self):
        q = Quadratic(1.0)
        rng = np.random.default_rng(8)
        for _ in range(100):
            t1, t2 = rng.uniform(0.01, 2.0, size=2)
            assert q.gamma_at(t1 + t2) > q.gamma_at(t1) + q.gamma_at(t2)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Markovian(-0.1)
        with pytest.raises(ValueError):
            Quadratic(-1.0)
        with pytest.raises(ValueError):
            Markovian(math.nan)

    def test_negative_time_rejected(self):
        for model in models_under_test():
            with pytest.raises(ValueError):
                model.gamma_at(-0.5)

    def test_optimum_out_of_float_range_refused(self):
        # 2 N rate or 4 N c overflows (optimum 0) or its reciprocal does (inf)
        for model, term in ((Markovian(1e308), "2 N rate"),
                            (Markovian(1e-320), "2 N rate"),
                            (Quadratic(1e308), "4 N c"),
                            (Quadratic(1e-320), "4 N c")):
            with pytest.raises(ValueError, match=f"N = 3 .*: {term} or its "
                               "reciprocal leaves the float range"):
                model.optimal_time(3)
        assert Quadratic(1e300).optimal_time(3) > 0.0

    def test_tabulated_range_enforced(self):
        tab = Tabulated(TAB_SAMPLES)
        with pytest.raises(ValueError, match="outside the sampled range"):
            tab.gamma_at(2.5)

    def test_tabulated_shape_errors(self):
        with pytest.raises(ValueError):
            Tabulated([])
        with pytest.raises(ValueError):
            Tabulated([(0.0, 0.0)])  # a lone origin defines no segment
        # a lone positive-time sample works: the origin is implied
        assert Tabulated([(1.0, 0.5)]).gamma_at(0.5) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            Tabulated([(0.0, 0.0), (1.0, 0.5), (1.0, 0.6)])  # repeated time
        with pytest.raises(ValueError):
            Tabulated([(0.0, 0.0), (1.0, 0.5), (2.0, 0.4)])  # decreasing gamma
        with pytest.raises(ValueError):
            Tabulated([(0.0, 0.1), (1.0, 0.5)])  # gamma(0) != 0
        with pytest.raises(ValueError):
            Tabulated([(-1.0, 0.0), (1.0, 0.5)])  # negative time


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "decay.csv"
        path.write_text("t,gamma\n0.0,0.0\n1.0,0.3\n2.0,0.8\n")
        tab = Tabulated.from_csv(path)
        assert tab.samples == ((0.0, 0.0), (1.0, 0.3), (2.0, 0.8))

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "decay.csv"
        path.write_text("time,gamma\n0.0,0.0\n1.0,0.3\n")
        with pytest.raises(ValueError, match="header"):
            Tabulated.from_csv(path)

    def test_malformed_row_reported_with_line(self, tmp_path):
        path = tmp_path / "decay.csv"
        path.write_text("t,gamma\n0.0,0.0\n1.0,zebra\n")
        with pytest.raises(ValueError, match=":3"):
            Tabulated.from_csv(path)

    def test_semantic_error_carries_path(self, tmp_path):
        path = tmp_path / "decay.csv"
        path.write_text("t,gamma\n0.0,0.0\n2.0,0.8\n1.0,0.9\n")
        with pytest.raises(ValueError, match="decay.csv"):
            Tabulated.from_csv(path)
