"""Fringe dataset container: validation, counts arithmetic, CSV round trip."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenometry import FringeDataset, estimates_from_counts, noise_subtract


@st.composite
def counted_datasets(draw):
    """A sampled-looking fringe: strictly increasing theta, counts, metadata."""
    size = draw(st.integers(1, 12))
    theta = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=size,
                                 max_size=size, unique=True)))
    n_total = draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size))
    n_plus = [draw(st.integers(0, m)) for m in n_total]
    estimate, stderr = estimates_from_counts(n_plus, n_total)
    return FringeDataset(
        strategy=draw(st.sampled_from(["ghz", "product"])),
        n_qubits=draw(st.integers(1, 12)),
        interrogation_time=draw(st.floats(0.0, 10.0)),
        visibility=draw(st.none() | st.floats(0.0, 1.0)),
        theta=theta, n_plus=n_plus, n_total=n_total,
        estimate=estimate, stderr=stderr,
        seed=draw(st.none() | st.integers(0, 2**63 - 1)),
    )


def small_dataset(**overrides):
    fields = dict(
        strategy="ghz",
        n_qubits=2,
        interrogation_time=0.25,
        visibility=0.9,
        theta=[0.0, 0.5, 1.0, 1.5, 2.0],
        n_plus=[90, 70, 50, 30, 0],
        n_total=[100, 100, 100, 100, 0],
        estimate=[0.8, 0.4, 0.0, -0.4, math.nan],
        stderr=[0.06, 0.0916, 0.1, 0.0916, math.nan],
        seed=7,
    )
    fields.update(overrides)
    return FringeDataset(**fields)


class TestCounts:
    def test_estimate_and_binomial_error(self):
        est, se = estimates_from_counts([75], [100])
        assert est[0] == pytest.approx(0.5, abs=1e-15)
        assert se[0] == pytest.approx(2.0 * math.sqrt(0.75 * 0.25 / 100), rel=1e-12)

    def test_zero_events_are_missing(self):
        est, se = estimates_from_counts([0, 10], [0, 20])
        assert math.isnan(est[0]) and math.isnan(se[0])
        assert est[1] == 0.0

    def test_saturated_counts_keep_positive_error(self):
        est, se = estimates_from_counts([100, 0], [100, 100])
        assert est[0] == 1.0 and est[1] == -1.0
        assert se[0] > 0.0 and se[1] > 0.0

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(
        st.integers(0, 10**12).flatmap(
            lambda total: st.tuples(st.integers(0, total), st.just(total))),
        min_size=1, max_size=30))
    def test_bounded_estimates_and_positive_errors(self, counts):
        n_plus, n_total = (np.array(c, dtype=np.int64) for c in zip(*counts))
        est, se = estimates_from_counts(n_plus, n_total)
        seen = n_total > 0
        assert np.all((-1.0 <= est[seen]) & (est[seen] <= 1.0))
        assert np.all(np.isfinite(se[seen]) & (se[seen] > 0.0))
        assert np.all(np.isnan(est[~seen]) & np.isnan(se[~seen]))

    def test_count_consistency_enforced(self):
        with pytest.raises(ValueError):
            estimates_from_counts([5], [4])
        with pytest.raises(ValueError):
            estimates_from_counts([-1], [4])


class TestDatasetValidation:
    def test_valid_dataset_roundtrips_fields(self):
        data = small_dataset()
        assert data.fringe_frequency == 2
        assert data.usable.tolist() == [True, True, True, True, False]

    def test_theta_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            small_dataset(theta=[0.0, 0.5, 0.5, 1.5, 2.0])

    def test_estimates_bounded(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            small_dataset(estimate=[1.5, 0.4, 0.0, -0.4, math.nan])

    def test_counts_consistent(self):
        with pytest.raises(ValueError):
            small_dataset(n_plus=[90, 70, 50, 30, 5])

    def test_stderr_non_negative_where_usable(self):
        with pytest.raises(ValueError):
            small_dataset(stderr=[-0.01, 0.09, 0.1, 0.09, math.nan])

    def test_strategy_checked(self):
        with pytest.raises(ValueError):
            small_dataset(strategy="bell")

    def test_arrays_read_only(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            data.estimate[0] = 0.0

    def test_replace_revalidates(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            data.replace(estimate=[2.0, 0.4, 0.0, -0.4, math.nan])
        moved = data.replace(interrogation_time=0.5)
        assert moved.interrogation_time == 0.5
        assert moved.visibility == data.visibility


class TestCsvRoundTrip:
    def test_bytes_stable_and_lossless(self, tmp_path):
        data = small_dataset()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        data.to_csv(p1, extra_comments=[("config_sha256", "deadbeef")])
        back = FringeDataset.from_csv(p1)
        back.to_csv(p2, extra_comments=[("config_sha256", "deadbeef")])
        assert p1.read_bytes() == p2.read_bytes()
        assert back.strategy == data.strategy
        assert back.n_qubits == data.n_qubits
        assert back.seed == data.seed
        assert back.visibility == data.visibility
        assert np.array_equal(back.theta, data.theta)
        assert np.array_equal(back.n_plus, data.n_plus)
        assert np.allclose(back.estimate, data.estimate, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(data=counted_datasets(),
           divisors=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=2))
    def test_noise_subtracted_dataset_round_trips(self, data, divisors):
        for v0 in divisors:
            data = noise_subtract(data, v0)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
            data.to_csv(first)
            back = FringeDataset.from_csv(first)
            back.to_csv(second)
            assert first.read_bytes() == second.read_bytes()
        for name in ("strategy", "n_qubits", "interrogation_time",
                     "visibility", "seed", "noise_divisor"):
            assert getattr(back, name) == getattr(data, name), name
        for name in ("theta", "n_plus", "n_total", "clamped"):
            assert np.array_equal(getattr(back, name), getattr(data, name)), name
        for name in ("estimate", "stderr"):
            assert np.array_equal(getattr(back, name), getattr(data, name),
                                  equal_nan=True), name

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# strategy=ghz\n# n_qubits=2\n# interrogation_time=0.1\n"
                       "theta,navel,n_total,estimate,stderr\n0.0,1,2,0.5,0.1\n")
        with pytest.raises(ValueError, match="header"):
            FringeDataset.from_csv(bad)

    @pytest.mark.parametrize("key, value, message", [
        ("n_qubits", "two", "n_qubits: could not parse 'two' as int"),
        ("seed", "1.5", "seed: could not parse '1.5' as int"),
        ("strategy", "foo", "strategy must be one of ('ghz', 'product')"),
        ("visibility", "1.5", "visibility must lie in [0, 1]"),
        ("clamped", "2", "clamped: expected a 0 or 1 per row, got '2'"),
        ("clamped", "01", "clamp flags must match the theta grid"),
    ], ids=["n_qubits", "seed", "strategy", "visibility", "clamped",
            "clamped-length"])
    def test_bad_metadata_names_the_file(self, tmp_path, key, value, message):
        meta = {"strategy": "ghz", "n_qubits": "2",
                "interrogation_time": "0.1", key: value}
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(f"# {k}={v}\n" for k, v in meta.items())
                       + "theta,n_plus,n_total,estimate,stderr\n"
                       "0.0,1,2,0.0,0.7\n")
        with pytest.raises(ValueError) as err:
            FringeDataset.from_csv(bad)
        assert str(err.value) == f"{bad}: {message}"

    def test_metadata_required(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta,n_plus,n_total,estimate,stderr\n0.0,1,2,0.0,0.7\n")
        with pytest.raises(ValueError, match="metadata"):
            FringeDataset.from_csv(bad)
