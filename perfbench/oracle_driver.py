"""Drive the documented density-matrix oracle the way a library user does.

Usage: python perfbench/oracle_driver.py --config oracle.ini --out DIR

Reads an ``[oracle]`` section (``n_values``, ``omegas``,
``fusion_visibility``, ``model_coefficient``, ``tolerance``).  For each N it
prepares the white-noise GHZ state with ``ghz_density_matrix``, evolves it
with ``evolve_oracle`` under the quadratic channel at the Zeno-optimal time
for every omega, and compares ``parity_expectation_dm`` with
``parity_expectation_analytic``.  Writes ``oracle.csv`` and exits 1 when a
difference exceeds the tolerance.

Library functions are looked up on the package at call time, so the tracer
can wrap them from outside.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import zenometry as zm


def _int_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oracle_driver")
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    ini = configparser.ConfigParser(interpolation=None)
    if not ini.read(args.config):
        print(f"error: cannot read {args.config}", file=sys.stderr)
        return 2
    section = ini["oracle"]
    ns = _int_range(section["n_values"])
    omegas = [float(w) for w in section["omegas"].split(",")]
    fusion_visibility = section.getfloat("fusion_visibility")
    tolerance = section.getfloat("tolerance")
    model = zm.Quadratic(section.getfloat("model_coefficient"))

    lines = ["N,omega,t,parity_dm,parity_analytic"]
    worst = 0.0
    for n in ns:
        t = zm.optimal_time(model, n)
        state = zm.ghz_density_matrix(zm.WhiteNoiseGhzParams(n, fusion_visibility))
        spec = zm.ProbeSpec("ghz", n, fusion_visibility ** (n / 2.0))
        for omega in omegas:
            dm = zm.parity_expectation_dm(zm.evolve_oracle(state, model, omega, t))
            analytic = zm.parity_expectation_analytic(spec, model, omega, t)
            worst = max(worst, abs(dm - analytic))
            lines.append(f"{n},{omega!r},{t!r},{dm!r},{analytic!r}")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "oracle.csv").write_text("\n".join(lines) + "\n")
    if worst > tolerance:
        print(f"error: oracle and closed form differ by {worst!r} "
              f"(tolerance {tolerance!r})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
