"""Run one benchmark step with spans recorded around zenometry's library calls.

Usage: python perfbench/tracer.py SPANS_JSON cli ARGS...     (zenometry.cli)
       python perfbench/tracer.py SPANS_JSON oracle ARGS...  (oracle_driver)

The wrappers are installed from outside, so no source file changes.  A
module that does ``from .rng import substream`` holds its own binding, so
each traced function is rebound in every zenometry module whose namespace
holds it (``substream`` in ``probes`` and ``estimation``, and everything in
the package namespace); traced methods are replaced on their class.  Each
span records its name, start, end and the index of its parent span.  Result
hooks add the exact counters.  Spans and counters are written to SPANS_JSON
when the command returns.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import zenometry
import zenometry.cli

# (module, function) pairs; the span is named "<module>.<function>".
FUNCTIONS = (
    ("config", "load_config"),
    ("probes", "sample_fringe"),
    ("probes", "evolve_oracle"),
    ("probes", "ghz_density_matrix"),
    ("estimation", "monte_carlo_errorbar"),
    ("estimation", "sensitivity_from_fringe"),
    ("estimation", "fit_fringe"),
    ("estimation", "noise_subtract"),
    ("fringes", "estimates_from_counts"),
    ("rng", "substream"),
    ("analysis", "noise_sweep"),
    ("analysis", "reference_bounds"),
    ("analysis", "scaling_fit"),
    ("analysis", "relative_resolution"),
    ("channel", "load_bd_calibration"),
    ("channel", "overlap_gaussian"),
)

# (module, class, method); the span is named "<module>.<class>.<method>".
METHODS = (
    ("fringes", "FringeDataset", "__init__"),
    ("fringes", "FringeDataset", "replace"),
    ("probes", "DensityMatrix", "__init__"),
    ("decay", "Quadratic", "gamma_at"),
    ("decay", "Markovian", "gamma_at"),
    ("decay", "Tabulated", "gamma_at"),
)


def _count_settings(counters, args, result):
    counters["probes.settings_sampled"] += result.theta.size


def _count_bootstrap(counters, args, result):
    counters["estimation.bootstrap_trials"] += result.trials
    counters["estimation.bootstrap_failed_trials"] += result.failed_trials


def _count_fit(counters, args, result):
    counters["estimation.fit_iterations"] += result.iterations
    counters["estimation.fits_converged"] += 1


def _count_dense_state(counters, args, result):
    # 16 bytes per complex entry of the 2^N x 2^N matrix: computed, not
    # measured.
    counters["probes.oracle_bytes"] += 16 * args[0].dim ** 2


HOOKS = {
    "probes.sample_fringe": _count_settings,
    "estimation.monte_carlo_errorbar": _count_bootstrap,
    "estimation.fit_fringe": _count_fit,
    "probes.DensityMatrix.__init__": _count_dense_state,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "zenometry" or name.startswith("zenometry.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"zenometry.{module_name}"], attr)
            wrapped = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"zenometry.{module_name}"], cls_name)
            setattr(cls, attr,
                    self.wrap(f"{module_name}.{cls_name}.{attr}", vars(cls)[attr]))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def main(argv: list[str]) -> int:
    spans_path, kind, *args = argv
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        entry = tracer.wrap("cli.main", zenometry.cli.main)
    elif kind == "oracle":
        import oracle_driver
        entry = tracer.wrap("oracle.main", oracle_driver.main)
    else:
        raise SystemExit(f"unknown step kind {kind!r}")
    try:
        return entry(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
