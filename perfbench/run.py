#!/usr/bin/env python3
"""Benchmark of zenometry's command-line workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-bootstrap --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py              # every workload, default seed

A run first sets up: it times ``SETUP_IMPORTS`` fresh interpreters running
``import zenometry``, each confirming that the package comes from this
checkout's ``src/`` (the first in a new checkout also compiles bytecode).
Then it repeats passes of the workload for ``--seconds``, in a closed loop
with one client: each command of a pass runs in a fresh interpreter, the next
starts after the previous has exited.  With ``--trace 0`` runs of
``reference.py`` come before the first pass and after every pass, and the
run reports the end-to-end metrics.  With ``--trace 1`` it alternates untraced
passes with passes run under ``tracer.py`` and reports the per-layer
metrics, including the tracing overhead.

Every command's outputs are checked against closed forms (``workloads.py``),
and every pass, traced or not, must write the same bytes as the first pass
of the run.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
results file with provenance and every sample is written under
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 42
DEFAULT_SECONDS = 40
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
MIN_PASSES = 3        # untraced passes in a --trace 0 run
MIN_TRACED_PAIRS = 2  # untraced + traced pairs in a --trace 1 run

ENV = dict(os.environ, PYTHONPATH=str(SRC))

END_TO_END_UNITS = {"wall_ratio": "ratio", "cpu_ratio": "ratio",
                    "peak_rss_mb": "MiB", "setup_s": "s"}

# Per-layer metrics.  A "_s" metric is the self time of the named spans
# (span duration minus the part its traced child spans cover), summed over
# the commands of a pass; "_calls"/"_builds" count those spans.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "config.load_config_s": ("config.load_config",),
    "probes.sample_fringe_s": ("probes.sample_fringe",),
    "probes.evolve_oracle_s": ("probes.evolve_oracle",),
    "probes.ghz_density_matrix_s": ("probes.ghz_density_matrix",),
    "probes.density_matrix_build_s": ("probes.DensityMatrix.__init__",),
    "estimation.monte_carlo_errorbar_s": ("estimation.monte_carlo_errorbar",),
    "estimation.sensitivity_from_fringe_s": ("estimation.sensitivity_from_fringe",),
    "estimation.fit_fringe_s": ("estimation.fit_fringe",),
    "estimation.noise_subtract_s": ("estimation.noise_subtract",),
    "fringes.dataset_build_s": ("fringes.FringeDataset.__init__",
                                "fringes.FringeDataset.replace"),
    "fringes.estimates_from_counts_s": ("fringes.estimates_from_counts",),
    "rng.substream_s": ("rng.substream",),
    "analysis.noise_sweep_s": ("analysis.noise_sweep",),
    "analysis.reference_bounds_s": ("analysis.reference_bounds",),
    "analysis.scaling_fit_s": ("analysis.scaling_fit",),
    "analysis.relative_resolution_s": ("analysis.relative_resolution",),
    "channel.load_bd_calibration_s": ("channel.load_bd_calibration",),
    "channel.overlap_gaussian_s": ("channel.overlap_gaussian",),
    "decay.gamma_at_s": ("decay.Quadratic.gamma_at", "decay.Markovian.gamma_at",
                         "decay.Tabulated.gamma_at"),
}
CALLS = {
    "probes.sample_fringe_calls": ("probes.sample_fringe",),
    "probes.evolve_oracle_calls": ("probes.evolve_oracle",),
    "probes.density_matrix_builds": ("probes.DensityMatrix.__init__",),
    "estimation.fit_fringe_calls": ("estimation.fit_fringe",),
    "fringes.dataset_builds": ("fringes.FringeDataset.__init__",),
    "rng.substream_calls": ("rng.substream",),
    "decay.gamma_at_calls": SELF_TIME["decay.gamma_at_s"],
}
# Counters kept by tracer.py's result hooks, reported as they are.
HOOK_COUNTERS = {
    "probes.settings_sampled": "count",
    "probes.oracle_bytes": "computed_B",
    "estimation.bootstrap_trials": "count",
    "estimation.bootstrap_failed_trials": "count",
}
# Metrics that must repeat exactly between passes of one seed.
EXACT_COUNTS = (*CALLS, *HOOK_COUNTERS, "cli.bytes_written")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, bad install)."""


@dataclass
class Execution:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def execute(argv: list[str], log: Path) -> Execution:
    """Run one command to completion; resources come from ``os.wait4``."""
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=log.parent, env=ENV,
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Execution(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)


def tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it
    (nearest rank), or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, sorted(samples)[math.ceil(q * n / 100) - 1]


def digest_tree(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digests[str(path.relative_to(root))] = h.hexdigest()
    return digests


def span_stats(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, self seconds]."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, list] = {}
    for (name, start, end, _), child in zip(spans, covered):
        entry = stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - child
    return stats


def importtime_seconds(log: Path) -> dict[str, float]:
    """``import zenometry`` and the scipy modules it pulls in, from
    ``-X importtime`` (cumulative microseconds of the outermost entries)."""
    entries = []
    for line in log.read_text().splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2]
        level = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((level, field.strip(), int(parts[1])))
    zenometry_us = scipy_us = 0
    in_scipy: dict[int, bool] = {}
    # The log lists children before parents; reversed, parents come first.
    for level, name, cumulative in reversed(entries):
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not in_scipy.get(level - 1, False):
            scipy_us += cumulative
        in_scipy[level] = is_scipy or in_scipy.get(level - 1, False)
        if name == "zenometry":
            zenometry_us = cumulative
    return {"import.zenometry_s": zenometry_us / 1e6,
            "import.scipy_s": scipy_us / 1e6}


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_before": list(os.getloadavg()),
    }


class Run:
    """One run of one workload: set-up, passes, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: int,
                 trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / workload.name
        self.inputs = self.work / "inputs"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[dict] | None = None  # digests of the first pass
        self.passes: list[dict] = []
        self.setup_samples: list[float] = []
        self.import_samples: list[dict] = []
        self.provenance = provenance(workload.name, seed, seconds, trace)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        for name, text in self.workload.inputs(self.seed).items():
            (self.inputs / name).write_text(text)
        log = self.work / "setup.log"
        flags = ["-X", "importtime"] if self.trace else []
        for _ in range(IMPORTTIME_RUNS if self.trace else SETUP_IMPORTS):
            imported = execute([sys.executable, *flags, "-c",
                                "import zenometry; print(zenometry.__file__)"], log)
            location = next((line for line in log.read_text().splitlines()
                             if line.endswith("__init__.py")), "")
            if imported.rc != 0 or not Path(location).is_relative_to(SRC):
                raise SetupError(f"zenometry does not import from {SRC}:\n{tail(log)}")
            if self.trace:
                self.import_samples.append(importtime_seconds(log))
            else:
                self.setup_samples.append(imported.wall_s)

    # -- passes ------------------------------------------------------------

    def _argv(self, step, out: Path, spans: Path | None) -> list[str]:
        args = [a.format(inputs=self.inputs, out=out) for a in step.args]
        if spans is not None:
            return [sys.executable, str(BENCH / "tracer.py"), str(spans),
                    step.kind, *args]
        if step.kind == "cli":
            return [sys.executable, "-m", "zenometry.cli", *args]
        return [sys.executable, str(BENCH / "oracle_driver.py"), *args]

    def run_pass(self, traced: bool) -> dict:
        pass_dir = self.work / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        executions = []
        start = perf_counter()
        for step in self.workload.steps:
            spans = pass_dir / f"{step.name}.spans.json" if traced else None
            executions.append(execute(
                self._argv(step, pass_dir / "out" / step.name, spans),
                pass_dir / f"{step.name}.log"))
        wall = perf_counter() - start

        record = {"traced": traced, "wall_s": wall,
                  "cpu_s": sum(e.cpu_s for e in executions),
                  "peak_rss_mb": max(e.maxrss_mb for e in executions),
                  "steps": {s.name: asdict(e)
                            for s, e in zip(self.workload.steps, executions)}}
        digests = []
        for step, e in zip(self.workload.steps, executions):
            out = pass_dir / "out" / step.name
            self.attempted += 1
            problems = []
            if e.rc != 0:
                problems.append(f"exit code {e.rc}\n{tail(pass_dir / f'{step.name}.log')}")
            elif self.reference is None:
                problems += step.check(out)
            digests.append(digest_tree(out) if out.is_dir() else {})
            if self.reference is not None and digests[-1] != self.reference[len(digests) - 1]:
                problems.append("outputs differ from the first pass")
            if problems:
                self.failed += 1
                self.problems += [f"{step.name}: {p}" for p in problems]
        if self.reference is None:
            self.reference = digests
        record["cli.bytes_written"] = sum(
            (pass_dir / "out" / s.name / f).stat().st_size
            for s, d in zip(self.workload.steps, digests) if s.kind == "cli"
            for f in d)
        if traced:
            record.update(self._layer_metrics(pass_dir))
        return record

    def _layer_metrics(self, pass_dir: Path) -> dict:
        stats: dict[str, list] = {}
        counters: Counter = Counter()
        for step in self.workload.steps:
            path = pass_dir / f"{step.name}.spans.json"
            if not path.is_file():
                continue
            dump = json.loads(path.read_text())
            counters.update(dump["counters"])
            for name, (calls, self_s) in span_stats(dump["spans"]).items():
                entry = stats.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        metrics = {m: sum(stats.get(n, (0, 0.0))[1] for n in names)
                   for m, names in SELF_TIME.items()}
        metrics.update({m: sum(stats.get(n, (0, 0.0))[0] for n in names)
                        for m, names in CALLS.items()})
        metrics.update({m: counters.get(m, 0) for m in HOOK_COUNTERS})
        trials = counters.get("estimation.bootstrap_trials", 0)
        metrics["estimation.bootstrap_ok_ratio"] = (
            (trials - counters.get("estimation.bootstrap_failed_trials", 0))
            / trials if trials else 0.0)
        fits = counters.get("estimation.fits_converged", 0)
        metrics["estimation.fit_iterations_mean"] = (
            counters.get("estimation.fit_iterations", 0) / fits if fits else 0.0)
        return metrics

    def measure(self) -> None:
        start = perf_counter()
        # The host's speed moves by up to 40 % over minutes, CPU time alike,
        # so runs of the same code differ by that much in seconds.  Each
        # untraced pass is paired with the mean of the reference runs just
        # before and after it; their ratio keeps the program's cost and
        # cancels most of the host's.
        before = None if self.trace else self.run_reference()
        if self.trace:
            # A checked, untraced reference pass that the overhead leaves out:
            # the first pass of a run tends to be slower while the host backs
            # freshly touched memory.
            self.passes.append(self.run_pass(traced=False))
        while True:
            cycle = perf_counter()
            if not self.trace:
                record = self.run_pass(traced=False)
                after = self.run_reference()
                record["ref_wall_s"] = (before.wall_s + after.wall_s) / 2
                record["ref_cpu_s"] = (before.cpu_s + after.cpu_s) / 2
                self.passes.append(record)
                before = after
            else:
                # Traced, untraced, untraced, traced, ...: a linear drift in
                # host speed cancels out of the overhead.
                order = (True, False) if len(self.passes) % 4 == 1 else (False, True)
                for traced in order:
                    self.passes.append(self.run_pass(traced))
            cycle = perf_counter() - cycle
            done = (len(self.passes) // 2) if self.trace else len(self.passes)
            enough = MIN_TRACED_PAIRS if self.trace else MIN_PASSES
            if done >= enough and perf_counter() - start + cycle > self.seconds:
                break

    def run_reference(self) -> Execution:
        log = self.work / "reference.log"
        ref = execute([sys.executable, str(BENCH / "reference.py")], log)
        if ref.rc != 0:
            raise SetupError(f"reference.py failed:\n{tail(log)}")
        return ref

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        plain = [p for p in self.passes if not p["traced"]]
        if not self.trace:
            values = {f"{t}_ratio": statistics.median(p[f"{t}_s"] / p[f"ref_{t}_s"]
                                                      for p in plain)
                      for t in ("wall", "cpu")}
            values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
            values["setup_s"] = statistics.median(self.setup_samples)
            return {m: (v, END_TO_END_UNITS[m]) for m, v in values.items()}
        traced = [p for p in self.passes if p["traced"]]
        for name in EXACT_COUNTS:
            seen = {p[name] for p in self.passes if name in p}
            if len(seen) > 1:
                self.problems.append(f"{name} differs between passes: {sorted(seen)}")
        out: dict[str, tuple[float, str]] = {}
        for m in SELF_TIME:
            out[m] = (statistics.median(p[m] for p in traced), "s")
        for m in CALLS:
            out[m] = (traced[0][m], "count")
        for m, unit in HOOK_COUNTERS.items():
            out[m] = (traced[0][m], unit)
        out["estimation.bootstrap_ok_ratio"] = (
            traced[0]["estimation.bootstrap_ok_ratio"], "ratio")
        out["estimation.fit_iterations_mean"] = (
            traced[0]["estimation.fit_iterations_mean"], "count")
        out["cli.bytes_written"] = (plain[0]["cli.bytes_written"], "B")
        for m in ("import.zenometry_s", "import.scipy_s"):
            out[m] = (statistics.median(s[m] for s in self.import_samples), "s")
        out["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain[1:]), "s")
        return dict(sorted(out.items()))

    def report(self, metrics: dict[str, tuple[float, str]]) -> None:
        plain = [p for p in self.passes if not p["traced"]]
        print(f"workload {self.workload.name}  seed {self.seed}  "
              f"passes {len(self.passes)}  invocations {self.attempted}  "
              f"failed {self.failed}  error_rate {self.failed / self.attempted:g}")
        for name, (value, unit) in metrics.items():
            shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
            line = f"  {name:40s} {shown} {unit}"
            if name in END_TO_END_UNITS and name != "setup_s":
                key = name.replace("_ratio", "_s")
                samples = [p[key] for p in plain]
                tp = tail_percentile(samples)
                line += f"   median of {len(samples)} passes"
                if key != "peak_rss_mb":
                    line += (f"; {key} median {statistics.median(samples):.6g}"
                             ", reference.py "
                             f"{statistics.median(p['ref_' + key] for p in plain):.6g}")
                line += (f"; {key} p{tp[0]} {tp[1]:.6g}" if tp else
                         "; no tail percentile below 11 samples")
            elif name == "setup_s":
                line += f"   median of {len(self.setup_samples)} imports"
            print(line)
        for problem in self.problems:
            print(f"CHECK FAILED {self.workload.name}: {problem}", file=sys.stderr)

        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / (f"{time.strftime('%Y%m%dT%H%M%S')}_{self.workload.name}"
                          f"_seed{self.seed}_trace{self.trace}.json")
        self.provenance["loadavg_after"] = list(os.getloadavg())
        path.write_text(json.dumps({
            "provenance": self.provenance,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "problems": self.problems,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
            "setup_samples": self.setup_samples,
            "import_samples": self.import_samples,
            "passes": self.passes,
        }, indent=1) + "\n")
        print(f"results: {path.relative_to(ROOT)}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def perform(self) -> dict[str, tuple[float, str]]:
        self.setup()
        self.measure()
        metrics = self.metrics()
        self.report(metrics)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (SRC / "zenometry" / "__init__.py").is_file():
        print(f"error: no zenometry package under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, so ``execute`` kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    try:
        for name in names:
            run = Run(WORKLOADS[name], args.seed, args.seconds, args.trace)
            runs.append((run, run.perform()))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(runs) == 1:
        metrics = runs[0][1]
    else:
        metrics = {f"{run.workload.name}.{m}": vu
                   for run, ms in runs for m, vu in ms.items()}
    correct = all(run.correct for run, _ in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run, _ in runs),
        "failed": sum(run.failed for run, _ in runs),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
