"""End-to-end runs of every subcommand through the console entry point."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenometry
import zenometry.cli
import zenometry.fringes
import zenometry.tables
from zenometry import sample_fringe
from zenometry.analysis import noise_sweep, reference_bounds
from zenometry.cli import _theta_grid, main
from zenometry.config import CONFIG_TYPES, FringeConfig, config_hash, load_config

from test_tables import per_row_reference


def run(tmp_path, command, config_text=None, extra=(), name="exp.ini"):
    argv = [command, "--out", str(tmp_path / "out")]
    if config_text is not None:
        path = tmp_path / name
        path.write_text(config_text)
        argv += ["--config", str(path)]
    argv += list(extra)
    rc = main(argv)
    summary = None
    summary_path = tmp_path / "out" / "summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text())
    return rc, summary


# bootstrap failure reasons in read-out check order, as summary.json names them
REASONS = ("few_points", "short_span", "singular_fit", "singular_covariance",
           "degenerate_slope", "zero_variance")


def reasons(**failed):
    """Failed bootstrap trials per reason, every reason listed."""
    assert set(failed) <= set(REASONS)
    return {name: failed.get(name, 0) for name in REASONS}


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [l[2:] for l in lines if l.startswith("# ")]
    body = [l for l in lines if not l.startswith("# ")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return comments, header, rows


class TestFringe:
    def test_analytic(self, tmp_path):
        rc, summary = run(tmp_path, "fringe",
                          "[fringe]\nn_values = 1, 2\nvisibilities = 0.9\n")
        assert rc == 0
        assert summary["subcommand"] == "fringe"
        assert summary["mode"] == "analytic"
        for n in (1, 2):
            comments, header, rows = read_csv(
                tmp_path / "out" / f"fringe_n{n}.csv")
            assert header == ["theta", "n_plus", "n_total", "estimate",
                              "stderr"]
            assert all(r["n_total"] == "0" for r in rows)
            assert all(float(r["stderr"]) == 0.0 for r in rows)
            assert any(c.startswith("config_sha256=") for c in comments)
        fit2 = summary["per_n"]["2"]
        t = fit2["interrogation_time"]
        assert t == pytest.approx(math.sqrt(1.0 / 8.0), rel=1e-12)
        assert fit2["amplitude"] == pytest.approx(
            0.9 * math.exp(-2.0 * t**2), abs=1e-9)
        assert sorted(fit2) == ["amplitude", "amplitude_stderr",
                                "interrogation_time", "phase", "visibility"]

    def test_montecarlo_counts_present(self, tmp_path):
        rc, summary = run(
            tmp_path, "fringe",
            "[fringe]\nn_values = 2\nmode = montecarlo\nseed = 5\n"
            "shots_per_setting = 2000\n")
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "out" / "fringe_n2.csv")
        assert sum(int(r["n_total"]) for r in rows) > 0
        assert summary["seed"] == 5

    def test_montecarlo_csv_has_one_seed_row(self, tmp_path):
        text = ("[fringe]\nn_values = 2\nmode = montecarlo\nseed = 5\n"
                "shots_per_setting = 2000\n")
        rc, _ = run(tmp_path, "fringe", text)
        assert rc == 0
        path = tmp_path / "out" / "fringe_n2.csv"
        comments, _, _ = read_csv(path)
        keys = [c.partition("=")[0] for c in comments]
        assert len(keys) == len(set(keys))
        derived = zenometry.cli._derived_seed(5, "fringe", 2)
        assert comments.count(f"seed={derived}") == 1
        cfg = load_config(tmp_path / "exp.ini", "fringe")
        assert comments[0] == f"config_sha256={config_hash(cfg, 'fringe')}"
        assert zenometry.FringeDataset.from_csv(path).seed == derived

    def test_seed_flag_changes_samples(self, tmp_path):
        text = ("[fringe]\nn_values = 2\nmode = montecarlo\nseed = 5\n"
                "shots_per_setting = 2000\n")
        run(tmp_path, "fringe", text)
        first = (tmp_path / "out" / "fringe_n2.csv").read_text()
        rc = main(["fringe", "--config", str(tmp_path / "exp.ini"),
                   "--out", str(tmp_path / "out2"), "--seed", "6"])
        assert rc == 0
        second = (tmp_path / "out2" / "fringe_n2.csv").read_text()
        assert first != second

    def test_rerun_is_byte_identical(self, tmp_path):
        text = ("[fringe]\nn_values = 1, 2\nmode = montecarlo\nseed = 11\n"
                "shots_per_setting = 3000\n")
        run(tmp_path, "fringe", text)
        rc = main(["fringe", "--config", str(tmp_path / "exp.ini"),
                   "--out", str(tmp_path / "out2")])
        assert rc == 0
        for name in ("fringe_n1.csv", "fringe_n2.csv", "summary.json"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (tmp_path / "out2" / name).read_bytes()


class TestScaling:
    def test_analytic_closed_forms(self, tmp_path):
        rc, summary = run(tmp_path, "scaling", "[scaling]\nn_values = 1..6\n")
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "out" / "resolution_raw.csv")
        assert header == ["N", "strategy", "t_opt", "d2omegaT", "fisher",
                          "stderr_fisher"]
        for row in rows:
            n = int(row["N"])
            expected = 2.0 * math.sqrt(math.e) / n**1.5
            assert float(row["d2omegaT"]) == pytest.approx(expected,
                                                           rel=1e-12)
            assert row["stderr_fisher"] == ""
        assert summary["slope_raw"]["slope"] == pytest.approx(-1.5,
                                                              abs=1e-9)
        # quadratic model: the bounds table is emitted and ordered
        _, _, bounds = read_csv(tmp_path / "out" / "bounds.csv")
        for row in bounds:
            assert float(row["bound_hl"]) <= float(row["bound_zl"]) \
                <= float(row["bound_sql"])

    def test_markovian_model(self, tmp_path):
        rc, summary = run(
            tmp_path, "scaling",
            "[scaling]\nmodel_kind = markovian\nmodel_coefficient = 0.5\n")
        assert rc == 0
        assert summary["slope_raw"]["slope"] == pytest.approx(-1.0, abs=1e-9)
        assert not (tmp_path / "out" / "bounds.csv").exists()

    def test_montecarlo_with_subtraction(self, tmp_path):
        rc, summary = run(
            tmp_path, "scaling",
            "[scaling]\nn_values = 1, 2, 3\nmode = montecarlo\nseed = 3\n"
            "shots_per_setting = 20000\ntrials = 100\n"
            "visibilities = 0.95, 0.9, 0.85\n")
        assert rc == 0
        _, _, raw = read_csv(tmp_path / "out" / "resolution_raw.csv")
        _, _, sub = read_csv(tmp_path / "out" / "resolution_subtracted.csv")
        assert len(raw) == len(sub) == 3
        for row in raw + sub:
            assert float(row["stderr_fisher"]) > 0.0
        # subtraction removes the visibility penalty
        for r_raw, r_sub in zip(raw, sub):
            assert float(r_sub["d2omegaT"]) < float(r_raw["d2omegaT"])
        assert summary["slope_subtracted"]["slope"] == pytest.approx(
            -1.5, abs=0.1)

    def test_bootstrap_counts_in_summary(self, tmp_path):
        # three shots per setting: some replicas of the N=1 fringe fail
        rc, summary = run(
            tmp_path, "scaling",
            "[scaling]\nn_values = 1..3\nmode = montecarlo\nseed = 1\n"
            "shots_per_setting = 3\ntrials = 100\n")
        assert rc == 0

        # every failure here is a replica whose usable points span less
        # than half a period
        def counts(*failed):
            return {str(n): {"trials": 100, "failed": f,
                             "failed_by_reason": reasons(short_span=f)}
                    for n, f in enumerate(failed, start=1)}
        assert summary["bootstrap"] == {"raw": counts(6, 0, 0),
                                        "subtracted": counts(3, 0, 0)}
        rc, summary = run(tmp_path, "scaling", "[scaling]\nn_values = 1..3\n")
        assert rc == 0
        assert "bootstrap" not in summary


    def test_each_fringe_sampled_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(spec, *args, **kwargs):
            calls.append(spec.n_qubits)
            return sample_fringe(spec, *args, **kwargs)
        monkeypatch.setattr(zenometry.cli, "sample_fringe", counting)
        rc, summary = run(
            tmp_path, "scaling",
            "[scaling]\nn_values = 1..3\nmode = montecarlo\nseed = 5\n"
            "shots_per_setting = 10000\ntrials = 100\nvisibilities = 0.9\n")
        assert rc == 0
        assert calls == [1, 2, 3]
        assert set(summary["bootstrap"]) == {"raw", "subtracted"}

    def test_duplicate_qubit_count_rejected(self, tmp_path, capsys):
        # a repeated N would enter the slope fit twice
        rc, summary = run(tmp_path, "scaling",
                          "[scaling]\nn_values = 1, 2, 3, 2\n")
        assert rc == 2
        assert summary is None
        assert "[scaling] n_values: every qubit count must appear once" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_zero_interrogation_time_rejected(self, tmp_path, capsys, mode):
        rc, summary = run(
            tmp_path, "scaling",
            f"[scaling]\nn_values = 1..3\nmode = {mode}\nseed = 5\n"
            "interrogation_time = 0\n")
        assert rc == 2
        assert summary is None
        assert "[scaling] interrogation_time: must be positive" \
            in capsys.readouterr().err
        # the fringe at t = 0 is well defined
        rc, _ = run(tmp_path, "fringe",
                    f"[fringe]\nn_values = 2\nmode = {mode}\nseed = 5\n"
                    "interrogation_time = 0\n")
        assert rc == 0

    @pytest.mark.parametrize("kind, term", [("quadratic", "4 N c"),
                                            ("markovian", "2 N rate")])
    def test_overflowing_optimum_names_its_cause(self, tmp_path, capsys, kind,
                                                 term):
        # the product overflows, so the optimal time once read 0 and the
        # error blamed the interrogation time
        rc, summary = run(tmp_path, "scaling", f"[scaling]\nmodel_kind = {kind}\n"
                          "model_coefficient = 1e308\n")
        assert rc == 1
        assert summary is None
        assert capsys.readouterr().err == (
            f"error: optimal time at N = 1 is 0.0: {term} or its reciprocal "
            "leaves the float range\n")


class TestCompare:
    def test_analytic_sqrt_n(self, tmp_path):
        rc, summary = run(tmp_path, "compare-markovian",
                          "[compare-markovian]\nn_values = 1..6\n")
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "out" / "relative_resolution.csv")
        for row in rows:
            n = int(row["N"])
            assert float(row["r_squared"]) == pytest.approx(math.sqrt(n),
                                                            rel=1e-12)
            assert float(row["r_squared_stderr"]) == 0.0
        assert summary["r_squared"]["4"] == pytest.approx(2.0, rel=1e-12)
        assert "bootstrap" not in summary

    def test_montecarlo(self, tmp_path):
        rc, summary = run(
            tmp_path, "compare-markovian",
            "[compare-markovian]\nn_values = 2\nmode = montecarlo\nseed = 9\n"
            "shots_per_setting = 100000\ntrials = 100\n")
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "out" / "relative_resolution.csv")
        row = rows[0]
        stderr = float(row["r_squared_stderr"])
        assert stderr > 0.0
        assert abs(float(row["r_squared"]) - math.sqrt(2.0)) < 5.0 * stderr
        counts = {"2": {"trials": 100, "failed": 0,
                        "failed_by_reason": reasons()}}
        assert summary["bootstrap"] == {"test": counts, "reference": counts}

    def test_markovian_test_channel_rejected(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "compare-markovian",
                    "[compare-markovian]\nmodel_kind = markovian\n")
        assert rc == 2
        assert "[compare-markovian] model_kind: the test channel must not " \
            "itself be markovian" in capsys.readouterr().err
        # refused in validation, before the output directory is made
        assert not (tmp_path / "out").exists()

    def test_fringe_keys_in_the_section_are_dropped(self, tmp_path):
        # one body can serve [scaling] and [compare-markovian]
        body = "n_values = 1..3\ntrials = 150\n"
        run(tmp_path, "compare-markovian", "[compare-markovian]\n" + body)
        plain = (tmp_path / "out" / "relative_resolution.csv").read_bytes()
        rc, _ = run(tmp_path, "compare-markovian",
                    "[compare-markovian]\n" + body + "strategy = product\n"
                    "visibilities = 0.5\ninterrogation_time = 9\n")
        assert rc == 0
        assert (tmp_path / "out" / "relative_resolution.csv").read_bytes() == plain


class TestNoiseSweep:
    def test_crossings(self, tmp_path):
        rc, summary = run(
            tmp_path, "noise-sweep",
            "[noise-sweep]\nfusion_visibilities = 0.99, 1.0\nn_max = 300\n")
        assert rc == 0
        assert summary["crossings"] == {"0.99": 280, "1.0": None}
        _, header, rows = read_csv(tmp_path / "out" / "noise_sweep.csv")
        assert header == ["fusion_visibility", "N", "d2omegaT_ghz",
                          "bound_sql", "bound_hl", "beats_sql"]
        assert len(rows) == 600
        flags = {(r["fusion_visibility"], int(r["N"])): r["beats_sql"]
                 for r in rows}
        assert flags[("0.99", 280)] == "true"
        assert flags[("0.99", 281)] == "false"

    def test_sweep_file_matches_per_row_reference(self, tmp_path):
        # the reference formats every cell of 3 x 5000 rows afresh, and
        # computes the bounds afresh for every visibility
        text = ("[noise-sweep]\nfusion_visibilities = 0.99, 0.9995, 1.0\n"
                "n_max = 5000\nmodel_coefficient = 0.7\n")
        rc, summary = run(tmp_path, "noise-sweep", text)
        assert rc == 0
        cfg = load_config(tmp_path / "exp.ini", "noise-sweep")
        rows = []
        for v in (0.99, 0.9995, 1.0):
            sweep = noise_sweep(v, range(1, 5001), 0.7)
            bounds = reference_bounds(range(1, 5001), 0.7)
            rows += [(v, *row) for row in zip(
                bounds.n_values, sweep.d2omega_t_ghz, bounds.sql, bounds.hl,
                sweep.beats_sql, strict=True)]
        expected = per_row_reference(
            [("config_sha256", config_hash(cfg, "noise-sweep"))],
            ("fusion_visibility", "N", "d2omegaT_ghz", "bound_sql",
             "bound_hl", "beats_sql"), rows)
        assert len(rows) == 3 * 5000
        assert (tmp_path / "out" / "noise_sweep.csv").read_bytes() \
            == expected.encode()
        assert summary["crossings"] == {"0.99": 280, "0.9995": 9115,
                                        "1.0": None}

    def test_requires_quadratic(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "noise-sweep",
                    "[noise-sweep]\nmodel_kind = markovian\n")
        assert rc == 2
        assert "[noise-sweep] model_kind: sweep bounds assume the quadratic " \
            "family" in capsys.readouterr().err
        # refused in validation, before the output directory is made
        assert not (tmp_path / "out").exists()

    def test_resampling_keys_are_not_read(self, tmp_path):
        # noise-sweep never resamples, so its section may carry a trial
        # count that scaling would refuse
        text = "[noise-sweep]\nn_max = 20\n"
        rc, summary = run(tmp_path, "noise-sweep", text + "trials = 50\n")
        assert rc == 0
        first = (tmp_path / "out" / "noise_sweep.csv").read_bytes()
        rc, _ = run(tmp_path, "noise-sweep", text)
        assert rc == 0
        assert (tmp_path / "out" / "noise_sweep.csv").read_bytes() == first
        # no sampling, so no seed and no mode
        assert not {"seed", "mode"} & set(summary)
        assert b"# seed=" not in first

    def test_n_max_budget(self, tmp_path, capsys):
        rc, summary = run(tmp_path, "noise-sweep",
                          "[noise-sweep]\nn_max = 1000001\n")
        assert rc == 2
        assert summary is None
        assert not (tmp_path / "out" / "noise_sweep.csv").exists()
        assert "[noise-sweep] n_max:" in capsys.readouterr().err

    def test_overflowing_anchor_is_one_error_line(self, tmp_path, capsys):
        # 2 sqrt(e c) overflows: every row would read inf beside a finite
        # crossing
        rc, summary = run(tmp_path, "noise-sweep",
                          "[noise-sweep]\nmodel_coefficient = 1e308\nn_max = 3\n")
        assert rc == 1
        assert summary is None
        assert capsys.readouterr().err == (
            "error: decay coefficient 1e+308 is too large: 2 sqrt(e c) overflows\n")

    def test_duplicate_visibility_rejected(self, tmp_path, capsys):
        rc, summary = run(tmp_path, "noise-sweep",
                          "[noise-sweep]\nfusion_visibilities = 0.99, 0.990\n")
        assert rc == 2
        assert summary is None
        assert not (tmp_path / "out" / "noise_sweep.csv").exists()
        assert "[noise-sweep] fusion_visibilities: every value must appear " \
            "once" in capsys.readouterr().err

    def test_memory_holds_one_sweep_and_no_row_objects(self, tmp_path):
        # The benchmark's table: 4 x 25000 rows, 8.3 MB.  The peak read
        # 14.0 MiB with one visibility's columns alive at a time and the
        # rows streamed to the writer; 19.5 MiB with all four sweeps held,
        # 23.3 MiB with one row object and one tuple per row, and
        # 26.7 MiB with the streamed rows collected into a list first.
        text = ("[noise-sweep]\nfusion_visibilities = 0.99, 0.999, 0.9999, "
                "1.0\nn_max = 25000\n")
        tracemalloc.start()
        try:
            rc, _ = run(tmp_path, "noise-sweep", text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 18 * 2**20


class TestWitness:
    def test_direct_value(self, tmp_path):
        rc, summary = run(tmp_path, "witness",
                          "[witness]\nwitness_value = -0.7052\n")
        assert rc == 0
        entry = summary["witness"][0]
        assert entry["source"] == "direct"
        assert entry["fidelity_bound"] == pytest.approx(0.8526, abs=1e-12)

    def test_setting_values(self, tmp_path):
        rc, summary = run(
            tmp_path, "witness",
            "[witness]\nx_expectation = 0.8\np_all_zero = 0.45\n"
            "p_all_one = 0.44\n")
        assert rc == 0
        entry = summary["witness"][0]
        assert entry["source"] == "settings"
        expected = 3.0 - (0.8 + 1.0) - 2.0 * (0.45 + 0.44)
        assert entry["w_value"] == pytest.approx(expected, rel=1e-12)

    def test_oracle_route(self, tmp_path):
        rc, summary = run(
            tmp_path, "witness",
            "[witness]\nfusion_visibility = 0.9\nn_values = 2, 3, 4\n")
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "out" / "witness.csv")
        assert [r["source"] for r in rows] == ["oracle"] * 3
        for row in rows:
            # the closed form the command reads is the dense oracle's value
            state = zenometry.ghz_density_matrix(
                zenometry.WhiteNoiseGhzParams(int(row["N"]), 0.9))
            assert float(row["w_value"]) == zenometry.witness_expectation(state)

    def test_no_source_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "witness", "[witness]\nseed = 1\n")
        assert rc == 2

    def test_sampling_keys_leave_rows_and_hash_alone(self, tmp_path):
        text = "[witness]\nwitness_value = -0.7052\n"
        run(tmp_path, "witness", text)
        plain = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        rc, summary = run(tmp_path, "witness", text + "shots_per_setting = 7\n"
                          "strategy = product\nseed = 3\n")
        assert rc == 0
        assert {p.name: p.read_bytes()
                for p in (tmp_path / "out").iterdir()} == plain
        assert not {"seed", "mode"} & set(summary)

    def test_no_mode_flag(self, tmp_path, capsys):
        for flag in (["--mode", "montecarlo"], ["--seed", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["witness", "--out", str(tmp_path / "out"), *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ("witness_value = 5\n", "witness_value"),
        ("x_expectation = 2\np_all_zero = 0.45\np_all_one = 0.44\n",
         "x_expectation"),
        ("x_expectation = 0.8\np_all_zero = 0.7\np_all_one = 0.6\n",
         "p_all_one"),
    ], ids=["witness_value", "x_expectation", "population_sum"])
    def test_out_of_range_value_names_the_field(self, tmp_path, capsys,
                                                text, field):
        rc, summary = run(tmp_path, "witness", "[witness]\n" + text)
        assert rc == 2
        assert summary is None
        assert f"[witness] {field}:" in capsys.readouterr().err

    def test_oracle_cap_rejected(self, tmp_path, capsys):
        rc, summary = run(
            tmp_path, "witness",
            "[witness]\nfusion_visibility = 0.9\nn_values = 2..13\n")
        assert rc == 2
        assert summary is None
        err = capsys.readouterr().err
        assert "[witness] n_values:" in err
        assert str(zenometry.ORACLE_MAX_QUBITS) in err

    def test_oracle_cap_ignored_off_the_oracle_route(self, tmp_path):
        rc, summary = run(
            tmp_path, "witness",
            "[witness]\nwitness_value = -0.5\nfusion_visibility = 0.9\n"
            "n_values = 2..13\n")
        assert rc == 0
        assert summary["witness"][0]["source"] == "direct"


class TestChannelCalibration:
    def test_bundled_table(self, tmp_path):
        rc, summary = run(tmp_path, "channel-calibration", None)
        assert rc == 0
        assert summary["rows"] == 8
        assert summary["max_abs_residual"] < 0.05
        _, _, rows = read_csv(tmp_path / "out" / "calibration.csv")
        for row in rows:
            assert abs(float(row["residual"])) < 0.05
            x0 = float(row["total_separation_mm"])
            d = float(row["per_bd_displacement_mm"])
            assert x0 == pytest.approx(math.sqrt(2.0) * d, rel=1e-12)

    def test_bad_table_rejected(self, tmp_path):
        bad = tmp_path / "table.csv"
        bad.write_text("per_bd_displacement_mm,intensity_plus\n1.0,2.0\n")
        rc, _ = run(tmp_path, "channel-calibration",
                    f"[channel-calibration]\ntable_csv = {bad}\n")
        assert rc == 2
        # refused in validation, before the output directory is made
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("waist", ["1e-300", "1e-320"])
    def test_unusable_waist_refused(self, tmp_path, capsys, waist):
        # GaussianMode's own rule: the waist's square must not underflow
        rc, summary = run(tmp_path, "channel-calibration",
                          f"[channel-calibration]\nwaist_mm = {waist}\n")
        assert rc == 2
        assert summary is None
        assert capsys.readouterr().err == (
            f"error: [channel-calibration] waist_mm: waist {waist} is too small: "
            "its square underflows\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, message", [
        ("0.5,-1.0,3.0", "intensities must be finite and non-negative"),
        ("-0.5,1.0,3.0", "per-displacer displacement must be >= 0"),
    ], ids=["intensity", "displacement"])
    def test_bad_table_value_rejected(self, tmp_path, capsys, row, message):
        table = tmp_path / "table.csv"
        table.write_text("per_bd_displacement_mm,intensity_plus,"
                         f"intensity_minus\n0.3,4.0,0.1\n{row}\n")
        rc, summary = run(tmp_path, "channel-calibration",
                          f"[channel-calibration]\ntable_csv = {table}\n")
        assert rc == 2
        assert summary is None
        err = capsys.readouterr().err
        assert f"[channel-calibration] table_csv: {table}: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fringe", "scaling"])
    def test_bad_model_table_rejected(self, tmp_path, capsys, command):
        bad = tmp_path / "bad_decay.csv"
        bad.write_text("t,gamma\n0.0,0.0\n1.0,zebra\n")
        rc, summary = run(tmp_path, command,
                          f"[{command}]\nmodel_kind = tabulated\n"
                          f"model_csv = {bad}\n")
        assert rc == 2
        assert summary is None
        err = capsys.readouterr().err
        assert f"[{command}] model_csv: {bad}:3:" in err
        assert not (tmp_path / "out").exists()


class TestThetaGrid:
    def test_working_point_is_an_inner_node(self):
        sizes = []
        for m in range(1, 13):
            grid = _theta_grid(FringeConfig(), m)
            intervals = grid.size - 1
            assert intervals % (2 * m) == 0 and intervals >= 4 * m
            idx = intervals // (2 * m)
            assert grid[idx] == pytest.approx(math.pi / (2 * m), abs=1e-12)
            assert 2 <= idx <= grid.size - 3
            sizes.append(grid.size)
        assert sizes == [25, 25, 25, 25, 21, 25, 29, 33, 37, 41, 45, 49]

    def test_explicit_size_wins(self):
        grid = _theta_grid(FringeConfig(theta_points=7), 3)
        assert grid.tolist() == np.linspace(0.0, math.pi, 7).tolist()


def run_fresh(tmp_path, *args, **env):
    """Run ``python *args`` in a fresh interpreter that imports this tree.

    Keyword arguments set variables of its environment; ``None`` unsets one.
    """
    src = str(Path(zenometry.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, *args], cwd=tmp_path,
                          env={k: v for k, v in env.items() if v is not None},
                          capture_output=True, text=True, timeout=120)


class TestRuntimeDependencies:
    def test_cli_paths_do_not_import_scipy(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            import zenometry, zenometry.cli
            out = {str(tmp_path)!r}
            # noise-sweep and channel-calibration have no --mode flag
            for argv in (["channel-calibration"], ["noise-sweep"],
                         ["fringe", "--mode", "analytic"]):
                rc = zenometry.cli.main([*argv, "--out", f"{{out}}/{{argv[0]}}"])
                assert rc == 0, argv
            assert "scipy" not in sys.modules, "scipy was imported"
        """)
        proc = run_fresh(tmp_path, "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fringe" / "summary.json").is_file()

    def test_closed_form_commands_do_not_import_numpy(self, tmp_path):
        # numpy is imported on the first array operation, and these three
        # commands make none
        witness_ini = tmp_path / "witness.ini"
        witness_ini.write_text(
            "[witness]\nfusion_visibility = 0.95\nn_values = 2..12\n")
        script = textwrap.dedent(f"""
            import sys
            import zenometry, zenometry.cli
            out = {str(tmp_path)!r}
            for command, config in (("channel-calibration", []),
                                    ("noise-sweep", []),
                                    ("witness", ["--config", {str(witness_ini)!r}])):
                rc = zenometry.cli.main([command, "--out", f"{{out}}/{{command}}",
                                         *config])
                assert rc == 0, command
            assert "numpy" not in sys.modules, "numpy was imported"
            rc = zenometry.cli.main(["fringe", "--mode", "analytic",
                                     "--out", f"{{out}}/fringe"])
            assert rc == 0, "fringe"
            assert "numpy" in sys.modules
        """)
        proc = run_fresh(tmp_path, "-c", script)
        assert proc.returncode == 0, proc.stderr
        for command in ("channel-calibration", "noise-sweep", "witness", "fringe"):
            assert (tmp_path / command / "summary.json").is_file()

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_cli_starts_numpy_with_one_blas_thread(self, tmp_path, preset):
        # main fills OPENBLAS_NUM_THREADS only where the user left it unset,
        # and importing the package leaves it alone
        script = textwrap.dedent(f"""
            import os, sys
            import zenometry, zenometry.cli
            assert "numpy" not in sys.modules
            assert os.environ.get("OPENBLAS_NUM_THREADS") == {preset!r}
            rc = zenometry.cli.main(["fringe", "--mode", "analytic",
                                     "--out", {str(tmp_path / "out")!r}])
            assert rc == 0, "fringe"
            assert os.environ["OPENBLAS_NUM_THREADS"] == {preset or "1"!r}
            if {preset is None} and sys.platform.startswith("linux"):
                threads = len(os.listdir("/proc/self/task"))
                assert threads == 1, f"{{threads}} threads"
        """)
        proc = run_fresh(tmp_path, "-c", script, OPENBLAS_NUM_THREADS=preset)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_loaded_numpy_leaves_the_environment_alone(self, tmp_path,
                                                       monkeypatch):
        # numpy has read the variable already, so setting it here would do
        # nothing but leak into this session and its later children
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert "numpy" in sys.modules
        rc, _ = run(tmp_path, "fringe", extra=["--mode", "analytic"])
        assert rc == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestBenchmarkTracer:
    # the benchmark's per-layer tracer wraps library functions by name; an
    # API change that breaks it fails here

    def trace(self, tmp_path, command, config_text):
        root = Path(__file__).resolve().parent.parent
        config = tmp_path / "exp.ini"
        config.write_text(config_text)
        spans = tmp_path / "spans.json"
        proc = run_fresh(tmp_path, str(root / "perfbench" / "tracer.py"),
                         str(spans), "cli", command, "--config", str(config),
                         "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        return json.loads(spans.read_text())

    def test_traced_montecarlo_scaling(self, tmp_path):
        trace = self.trace(
            tmp_path, "scaling",
            "[scaling]\nn_values = 1..3\nmode = montecarlo\nseed = 5\n"
            "shots_per_setting = 10000\ntrials = 100\n")
        expected = {"probes.settings_sampled": 3 * 25,
                    "estimation.bootstrap_trials": 2 * 3 * 100,
                    "estimation.bootstrap_failed_trials": 0}
        assert {k: trace["counters"].get(k) for k in expected} == expected
        names = {span[0] for span in trace["spans"]}
        assert {"cli.main", "probes.sample_fringe",
                "estimation.sensitivity_from_fringe",
                "estimation.monte_carlo_errorbar"} <= names

    def test_traced_noise_sweep(self, tmp_path):
        # the tracer installs on a package that has not loaded numpy yet
        trace = self.trace(tmp_path, "noise-sweep",
                           "[noise-sweep]\nn_max = 50\n")
        names = {span[0] for span in trace["spans"]}
        assert {"cli.main", "analysis.noise_sweep",
                "analysis.reference_bounds"} <= names


class TestErrorPaths:
    def test_unknown_config_key(self, tmp_path):
        rc, _ = run(tmp_path, "fringe", "[fringe]\nqubits = 3\n")
        assert rc == 2
        # --out names the output directory; the INI has no key for it
        elsewhere = tmp_path / "elsewhere"
        rc, _ = run(tmp_path, "witness",
                    f"[witness]\nwitness_value = -0.5\nout_dir = {elsewhere}\n")
        assert rc == 2
        assert not elsewhere.exists()

    @pytest.mark.parametrize("text", [
        "[scaling]\ninterrogation_time = 50\n",
        "[scaling]\ninterrogation_time = 1e300\n",
        "[scaling]\nvisibilities = 1e-300\n",
        "[scaling]\ninterrogation_time = 1e-320\n",
        "[fringe]\nvisibilities = 1e-160\n",
    ], ids=["time-50", "time-1e300", "visibility-1e-300", "time-1e-320",
            "fringe-visibility-1e-160"])
    def test_underflow_is_one_error_line(self, tmp_path, capsys, text):
        # each once raised ZeroDivisionError out of main, or (time-1e-320)
        # blamed d2omega_t for the overflow of the closed-form variance, or
        # (fringe-visibility-1e-160) wrote a NaN amplitude stderr and exited 0,
        # and later wrote fringe_n1.csv before its fit failed
        command = text[1:text.index("]")]
        rc, _ = run(tmp_path, command, text)
        assert rc == 1
        assert list((tmp_path / "out").iterdir()) == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("text", [
        "[fringe]\nn_values = 1..1000000000000\n",
        "[fringe]\nn_values = 1000000000000\n",
        "[fringe]\ntheta_points = 1000000000000\n",
        "[scaling]\nmode = montecarlo\nseed = 1\ntrials = 1000000000000\n",
        "[compare-markovian]\nmode = montecarlo\nseed = 1\n"
        "trials = 1000000000000\n",
    ], ids=["n-range", "n-value", "theta-points", "scaling-trials",
            "compare-trials"])
    def test_oversized_value_refused_before_allocating(self, tmp_path, capsys,
                                                      text):
        # each once ended in a MemoryError traceback; at these sizes the
        # allocation fails at once, so nothing is allocated either way
        command = text[1:text.index("]")]
        key = text.splitlines()[-1].partition(" =")[0]
        rc, summary = run(tmp_path, command, text)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{command}] {key}: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_runtime_failure(self, tmp_path):
        # interrogation beyond the tabulated range: a run-time, not config, error
        table = tmp_path / "gamma.csv"
        table.write_text("t,gamma\n0.5,0.1\n")
        rc, summary = run(
            tmp_path, "fringe",
            f"[fringe]\nmodel_kind = tabulated\nmodel_csv = {table}\n"
            "interrogation_time = 2.0\nn_values = 2\n")
        assert rc == 1
        assert summary is None

    def test_summary_is_sorted_json(self, tmp_path):
        rc, _ = run(tmp_path, "witness", "[witness]\nwitness_value = -0.5\n")
        assert rc == 0
        text = (tmp_path / "out" / "summary.json").read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert "config_sha256" in payload


def _recording(cfg, reads):
    """A copy of ``cfg`` that adds the name of each field read to ``reads``."""
    names = {f.name for f in fields(cfg)}

    class Recording(type(cfg)):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)
    return Recording(**{name: getattr(cfg, name) for name in names})


_MC = "mode = montecarlo\nseed = 4\nshots_per_setting = 2000\n"
_READ_CASES = {
    "fringe": ["n_values = 1, 2\nvisibilities = 0.9\n",
               "n_values = 2\ninterrogation_time = 0.3\n" + _MC,
               "n_values = 1, 2\nmodel_kind = tabulated\n"],
    "scaling": ["n_values = 1..3\n",
                "n_values = 1..3\ntrials = 100\nvisibilities = 0.9\n" + _MC,
                "n_values = 1..3\nmodel_kind = tabulated\n"],
    "compare-markovian": ["n_values = 1, 2\n",
                          "n_values = 2\ntrials = 100\n" + _MC,
                          "n_values = 1, 2\nmodel_kind = tabulated\n"],
    "noise-sweep": ["n_max = 30\n"],
    "witness": ["witness_value = -0.5\n",
                "x_expectation = 0.8\np_all_zero = 0.45\np_all_one = 0.44\n",
                "fusion_visibility = 0.9\nn_values = 2, 3\n"],
    "channel-calibration": [""],
}


def _read_case_configs(tmp_path, command):
    """The command's config of each of its read cases, with a fresh output
    directory for each."""
    table = tmp_path / "gamma.csv"
    table.write_text("t,gamma\n" + "".join(
        f"{0.05 * i!r},{(0.05 * i) ** 2!r}\n" for i in range(41)))
    for position, body in enumerate(_READ_CASES[command]):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[{command}]\n{body}model_csv = {table}\n"
                       if "tabulated" in body else f"[{command}]\n{body}")
        out = tmp_path / str(position)
        out.mkdir()
        yield load_config(ini, command), out


@pytest.mark.parametrize("command", list(_READ_CASES))
def test_handlers_read_every_field_of_their_type(tmp_path, monkeypatch,
                                                  command):
    # every mode, model family and witness route together read each field
    # of the command's type; hashing reads them all, so it is left out
    monkeypatch.setattr(zenometry.cli, "config_hash", lambda cfg, section: "0")
    reads = set()
    for cfg, out in _read_case_configs(tmp_path, command):
        zenometry.cli._HANDLERS[command](_recording(cfg, reads), out)
    assert reads == {f.name for f in fields(CONFIG_TYPES[command])}


@pytest.mark.parametrize("command", list(_READ_CASES))
def test_tables_get_pair_comments_and_python_cells(tmp_path, monkeypatch,
                                                   command):
    # the table writer formats only these cell types; any other value would
    # reach its str() fallback.  noise-sweep formats its columns itself.
    cell_types = {type(None), str, bool, int, float}
    comments_seen, types_seen = [], set()

    def write_table(path, comments, header, rows):
        rows = list(rows)
        comments_seen.extend(comments)
        types_seen.update(type(cell) for row in rows for cell in row)
        zenometry.tables.write_table(path, comments, header, rows)

    def format_column(cells):
        types_seen.update(map(type, cells))
        return zenometry.tables.format_column(cells)

    for module in (zenometry.cli, zenometry.fringes):
        monkeypatch.setattr(module, "write_table", write_table)
    monkeypatch.setattr(zenometry.cli, "format_column", format_column)
    for cfg, out in _read_case_configs(tmp_path, command):
        zenometry.cli._HANDLERS[command](cfg, out)
    assert comments_seen
    for comment in comments_seen:
        assert type(comment) is tuple and len(comment) == 2, comment
        assert type(comment[0]) is str and type(comment[1]) in cell_types, comment
    assert types_seen <= cell_types


# Small runs of every subcommand; an example replaces one key's value.
_SMALL_RUNS = {
    "fringe": {"n_values": "1, 2", "seed": "3", "shots_per_setting": "1000"},
    "scaling": {"n_values": "1..3", "seed": "3", "shots_per_setting": "1000",
                "trials": "100"},
    "compare-markovian": {"n_values": "1, 2", "seed": "3",
                          "shots_per_setting": "1000", "trials": "100"},
    "noise-sweep": {"n_max": "30"},
    "witness": {"n_values": "2, 3", "fusion_visibility": "0.9"},
    "channel-calibration": {},
}
# Never a size between the caps and 10**12: without the caps such a value
# really allocates, and from 10**12 on the allocation fails at once.
_EXTREMES = st.one_of(st.sampled_from(["-1", "0", "1e-320", "1e308", "nan", ""]),
                      st.integers(10**12, 10**30).map(str))


@st.composite
def _extreme_runs(draw):
    command = draw(st.sampled_from(sorted(_SMALL_RUNS)))
    body = dict(_SMALL_RUNS[command])
    if "seed" in body:
        body["mode"] = draw(st.sampled_from(["analytic", "montecarlo"]))
    names = sorted(f.name for f in fields(CONFIG_TYPES[command]))
    key = draw(st.sampled_from(names))
    body[key] = draw(_EXTREMES)
    return command, names, body


@settings(max_examples=500, deadline=None)
@given(case=_extreme_runs())
def test_extreme_values_end_cleanly(case):
    # an extreme value exits 0, 2 naming a key, or 1 with one error line;
    # an exception escaping main would print a traceback
    command, names, body = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        ini = Path(tmp) / "exp.ini"
        ini.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n"
                                                    for k, v in body.items()))
        rc = main([command, "--config", str(ini), "--out", f"{tmp}/out"])
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        if rc == 2:
            section, _, rest = lines[0].partition("] ")
            assert section == f"error: [{command}"
            assert rest.partition(":")[0] in names
        else:
            assert rc == 1 and lines[0].startswith("error: ")
