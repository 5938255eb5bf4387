"""The benchmark's workloads: the input files each one generates from its
seed, the commands of one pass, and the checks on every command's outputs.

Checks compare numbers with closed forms that the benchmark computes itself,
at the relative tolerance ``RTOL``, so they hold across commits that move
the last digits of a float.  Byte identity is only demanded between passes of
one run (see ``run.py``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Relative tolerance for numbers compared with a closed form: loose enough
# for last-ulp drift from a change of algorithm, tight enough to catch a
# wrong formula.
RTOL = 1e-9

# Measured initial-parity visibilities for N = 1..6 (the README config).
README_VISIBILITIES = (0.9776, 0.9781, 0.8777, 0.8671, 0.8071, 0.7968)

# Window on the noise-subtracted slope, from acceptance criterion 05.
SUBTRACTED_SLOPE_WINDOW = (-1.56, -1.45)
# r_squared may sit this many of its own bootstrap stderrs from sqrt(N).
R2_BAND_SIGMAS = 5.0
# Largest |predicted - measured| visibility, from acceptance criterion 09.
CALIBRATION_RESIDUAL_LIMIT = 0.05
ORACLE_TOLERANCE = 1e-10

ZENO_ANCHOR = 2.0 * math.sqrt(math.e)  # 2 sqrt(e c) with c = 1
WAIST_MM = 1.05


@dataclass(frozen=True)
class Step:
    """One command of a pass and the check on what it wrote.

    ``kind`` is ``cli`` (``python -m zenometry.cli``) or ``oracle`` (the
    benchmark's oracle driver).  ``{inputs}`` in ``args`` names the
    directory of generated input files and ``{out}`` the step's output
    directory.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict[str, str]]
    steps: tuple[Step, ...]


def close(value: float, expected: float, rtol: float = RTOL) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= rtol * max(abs(expected), 1e-300)


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a zenometry CSV, skipping its ``# key=value`` comment rows."""
    with open(path, newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        return list(csv.DictReader(lines))


def _read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _visibility_list() -> str:
    return ", ".join(repr(v) for v in README_VISIBILITIES)


# --------------------------------------------------------------- paper-bootstrap

def _paper_bootstrap_inputs(seed: int) -> dict[str, str]:
    body = (
        "strategy = ghz\n"
        "n_values = 1..6\n"
        "model_kind = quadratic\n"
        "model_coefficient = 1.0\n"
        "mode = montecarlo\n"
        f"seed = {seed}\n"
        "shots_per_setting = 1000000\n"
        "trials = 200\n"
        f"visibilities = {_visibility_list()}\n"
    )
    return {"bench.ini": f"[scaling]\n{body}\n[compare-markovian]\n{body}"}


def _check_scaling(out: Path) -> list[str]:
    problems = []
    lo, hi = SUBTRACTED_SLOPE_WINDOW
    slope = _read_summary(out)["slope_subtracted"]["slope"]
    if not lo <= slope <= hi:
        problems.append(f"noise-subtracted slope {slope!r} outside [{lo}, {hi}]")
    for name in ("resolution_raw.csv", "resolution_subtracted.csv"):
        rows = read_csv(out / name)
        if [int(r["N"]) for r in rows] != list(range(1, 7)):
            problems.append(f"{name}: expected rows for N = 1..6")
        for r in rows:
            d2 = float(r["d2omegaT"])
            if not (math.isfinite(d2) and d2 > 0.0):
                problems.append(f"{name}: N={r['N']} d2omegaT {d2!r}")
    return problems


def _check_compare(out: Path) -> list[str]:
    # Quadratic(1) against Markovian(e^-1/2): the analytic ratio is sqrt(N)
    # exactly (acceptance criterion 10).
    problems = []
    rows = read_csv(out / "relative_resolution.csv")
    if [int(r["N"]) for r in rows] != list(range(1, 7)):
        problems.append("relative_resolution.csv: expected rows for N = 1..6")
    for r in rows:
        n = int(r["N"])
        r2, stderr = float(r["r_squared"]), float(r["r_squared_stderr"])
        if not stderr > 0.0:
            problems.append(f"N={n}: r_squared_stderr {stderr!r} not positive")
        elif abs(r2 - math.sqrt(n)) > R2_BAND_SIGMAS * stderr:
            problems.append(f"N={n}: r_squared {r2!r} more than "
                            f"{R2_BAND_SIGMAS} stderr ({stderr!r}) from sqrt(N)")
    return problems


# ---------------------------------------------------------------- oracle-witness

ORACLE_N = (6, 9)
ORACLE_OMEGAS = (0.0, 0.7)
FUSION_VISIBILITY = 0.95
WITNESS_N = (2, 12)


def _oracle_witness_inputs(seed: int) -> dict[str, str]:
    # No sampling here: the seed only enters the config hash.
    return {
        "oracle.ini": (
            "[oracle]\n"
            f"n_values = {ORACLE_N[0]}..{ORACLE_N[1]}\n"
            f"omegas = {', '.join(map(repr, ORACLE_OMEGAS))}\n"
            f"fusion_visibility = {FUSION_VISIBILITY!r}\n"
            "model_coefficient = 1.0\n"
            f"tolerance = {ORACLE_TOLERANCE!r}\n"
        ),
        "witness.ini": (
            "[witness]\n"
            f"fusion_visibility = {FUSION_VISIBILITY!r}\n"
            f"n_values = {WITNESS_N[0]}..{WITNESS_N[1]}\n"
            f"seed = {seed}\n"
        ),
    }


def _check_oracle(out: Path) -> list[str]:
    problems = []
    rows = read_csv(out / "oracle.csv")
    expected_keys = [(n, w) for n in range(ORACLE_N[0], ORACLE_N[1] + 1)
                     for w in ORACLE_OMEGAS]
    if [(int(r["N"]), float(r["omega"])) for r in rows] != expected_keys:
        problems.append("oracle.csv: unexpected (N, omega) rows")
    for r in rows:
        n, omega, t = int(r["N"]), float(r["omega"]), float(r["t"])
        dm, analytic = float(r["parity_dm"]), float(r["parity_analytic"])
        # Zeno optimum of gamma = t^2 and the white-noise GHZ fringe.
        closed = (FUSION_VISIBILITY ** (n / 2.0) * math.exp(-n * t * t)
                  * math.cos(n * omega * t))
        if not close(t, math.sqrt(1.0 / (4.0 * n))):
            problems.append(f"N={n}: t {t!r} is not the Zeno optimum")
        if abs(dm - analytic) > ORACLE_TOLERANCE:
            problems.append(f"N={n} omega={omega}: oracle {dm!r} vs closed "
                            f"form {analytic!r}")
        if not close(analytic, closed):
            problems.append(f"N={n} omega={omega}: analytic {analytic!r} "
                            f"vs {closed!r}")
    return problems


def _check_witness(out: Path) -> list[str]:
    problems = []
    rows = read_csv(out / "witness.csv")
    if [int(r["N"]) for r in rows] != list(range(WITNESS_N[0], WITNESS_N[1] + 1)):
        problems.append("witness.csv: expected rows for N = 2..12")
    for r in rows:
        n = int(r["N"])
        v = FUSION_VISIBILITY ** (n / 2.0)
        # 3 - (<X^N> + 1) - 2 (p_0..0 + p_1..1) for V|GHZ><GHZ| + (1-V) I/2^N
        w = 2.0 - 3.0 * v - 4.0 * (1.0 - v) / 2.0**n
        bound = min(max((1.0 - w) / 2.0, 0.0), 1.0)
        if r["source"] != "oracle" or not close(float(r["w_value"]), w):
            problems.append(f"N={n}: witness {r['w_value']} vs {w!r}")
        if not close(float(r["fidelity_bound"]), bound):
            problems.append(f"N={n}: fidelity bound {r['fidelity_bound']} "
                            f"vs {bound!r}")
    return problems


# ------------------------------------------------------------------ sweep-export

SWEEP_VISIBILITIES = (0.99, 0.999, 0.9999, 1.0)
SWEEP_N_MAX = 25_000


def _sweep_export_inputs(seed: int) -> dict[str, str]:
    # Closed forms only: the seed only enters the config hashes.
    return {"bench.ini": (
        "[noise-sweep]\n"
        f"fusion_visibilities = {', '.join(map(repr, SWEEP_VISIBILITIES))}\n"
        f"n_max = {SWEEP_N_MAX}\n"
        "model_kind = quadratic\n"
        "model_coefficient = 1.0\n"
        f"seed = {seed}\n"
        "\n[fringe]\n"
        "strategy = ghz\n"
        "n_values = 1..6\n"
        "model_kind = quadratic\n"
        "model_coefficient = 1.0\n"
        "mode = analytic\n"
        f"visibilities = {_visibility_list()}\n"
        f"seed = {seed}\n"
        "\n[channel-calibration]\n"
        f"waist_mm = {WAIST_MM!r}\n"
        f"seed = {seed}\n"
    )}


def brute_force_crossing(v: float) -> int | None:
    """Largest N with sqrt(N) v^N > 1, by scanning N upwards."""
    if v == 1.0:
        return None
    log_v = math.log(v)
    last = None
    peak = -0.5 / log_v
    n = 1
    while True:
        margin = 0.5 * math.log(n) + n * log_v
        if margin > 0.0:
            last = n
        elif n > peak:
            return last
        n += 1


def _check_noise_sweep(out: Path) -> list[str]:
    problems = []
    crossings = _read_summary(out)["crossings"]
    expected_crossings = {repr(v): brute_force_crossing(v)
                          for v in SWEEP_VISIBILITIES}
    if crossings != expected_crossings:
        problems.append(f"crossings {crossings} vs {expected_crossings}")
    count = 0
    wrong = 0
    for r in read_csv(out / "noise_sweep.csv"):
        count += 1
        v, n = float(r["fusion_visibility"]), int(r["N"])
        denominator = n**1.5 * v**n
        d2 = ZENO_ANCHOR / denominator if denominator > 0.0 else math.inf
        sql = ZENO_ANCHOR / n
        ok = (close(float(r["d2omegaT_ghz"]), d2)
              and close(float(r["bound_sql"]), sql)
              and close(float(r["bound_hl"]), ZENO_ANCHOR / n**2)
              and r["beats_sql"] == ("true" if d2 < sql else "false"))
        if not ok:
            wrong += 1
            if wrong <= 3:
                problems.append(f"noise_sweep.csv: v={v} N={n} row {r}")
    if count != len(SWEEP_VISIBILITIES) * SWEEP_N_MAX:
        problems.append(f"noise_sweep.csv: {count} rows")
    if wrong:
        problems.append(f"noise_sweep.csv: {wrong} rows off the closed form")
    return problems


def _check_fringe(out: Path) -> list[str]:
    problems = []
    per_n = _read_summary(out)["per_n"]
    if sorted(per_n, key=int) != [str(n) for n in range(1, 7)]:
        problems.append("summary.json: expected N = 1..6")
    for key, entry in per_n.items():
        n = int(key)
        t = math.sqrt(1.0 / (4.0 * n))
        # Fringe amplitude V exp(-m gamma(t)) with m = N and gamma = t^2.
        amplitude = README_VISIBILITIES[n - 1] * math.exp(-n * t * t)
        if not close(entry["interrogation_time"], t):
            problems.append(f"N={n}: t {entry['interrogation_time']!r} vs {t!r}")
        if not close(entry["amplitude"], amplitude):
            problems.append(f"N={n}: amplitude {entry['amplitude']!r} "
                            f"vs {amplitude!r}")
        if not (out / f"fringe_n{n}.csv").is_file():
            problems.append(f"fringe_n{n}.csv missing")
    return problems


def _check_calibration(out: Path) -> list[str]:
    problems = []
    rows = read_csv(out / "calibration.csv")
    if len(rows) != 8:
        problems.append(f"calibration.csv: {len(rows)} rows, expected 8")
    for r in rows:
        d = float(r["per_bd_displacement_mm"])
        x0 = float(r["total_separation_mm"])
        predicted = float(r["predicted_visibility"])
        residual = float(r["residual"])
        if not close(x0, math.sqrt(2.0) * d):
            problems.append(f"d={d}: separation {x0!r}")
        if not close(predicted, math.exp(-x0 * x0 / (2.0 * WAIST_MM**2))):
            problems.append(f"d={d}: predicted visibility {predicted!r}")
        if not close(residual, predicted - float(r["measured_visibility"])):
            problems.append(f"d={d}: residual {residual!r}")
        if abs(residual) > CALIBRATION_RESIDUAL_LIMIT:
            problems.append(f"d={d}: |residual| {abs(residual)!r} > "
                            f"{CALIBRATION_RESIDUAL_LIMIT}")
    return problems


def _cli(name: str, command: str, ini: str, check) -> Step:
    return Step(name, "cli",
                (command, "--config", "{inputs}/" + ini, "--out", "{out}"),
                check)


WORKLOADS = {w.name: w for w in (
    Workload("paper-bootstrap", _paper_bootstrap_inputs, (
        _cli("scaling", "scaling", "bench.ini", _check_scaling),
        _cli("compare-markovian", "compare-markovian", "bench.ini",
             _check_compare),
    )),
    Workload("oracle-witness", _oracle_witness_inputs, (
        Step("oracle", "oracle",
             ("--config", "{inputs}/oracle.ini", "--out", "{out}"),
             _check_oracle),
        _cli("witness", "witness", "witness.ini", _check_witness),
    )),
    Workload("sweep-export", _sweep_export_inputs, (
        _cli("noise-sweep", "noise-sweep", "bench.ini", _check_noise_sweep),
        _cli("fringe", "fringe", "bench.ini", _check_fringe),
        _cli("channel-calibration", "channel-calibration", "bench.ini",
             _check_calibration),
    )),
)}
