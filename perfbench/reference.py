"""Fixed reference work, run in a fresh interpreter after every pass.

Usage: python perfbench/reference.py

The host's speed moves by up to 40 % over minutes (see WORKLOADS.md), so
run.py reports pass times as ratios to this program's time measured just
before and after them.  It uses only the standard library, numpy and scipy, never zenometry,
so no change to the program moves it.  Its parts mirror what the workloads
spend time on: interpreter start-up and the numpy/scipy imports, formatting
rows as text, array arithmetic over a working set larger than a core's
caches, and dense linear algebra.  Prints a checksum of the results.
"""

from __future__ import annotations

import zlib

import numpy as np
import scipy.integrate  # noqa: F401  (the import the package's start-up pays)

ROWS = 150_000
ARRAY = 8_000_000  # 64 MB of float64
MATRIX = 512


def main() -> None:
    text = "\n".join(f"{n},{1.0 / n!r},{n ** -1.5!r},{'true' if n % 3 else 'false'}"
                     for n in range(1, ROWS + 1))
    x = np.linspace(0.0, 1.0, ARRAY)
    y = np.exp(-x * x) * np.cos(7.0 * x)
    m = np.cos(np.outer(np.arange(MATRIX), np.arange(MATRIX)) * 1e-3)
    for _ in range(4):
        m = m @ m.T
        m /= np.abs(m).max()
    print(zlib.crc32(text.encode()), repr(float(y.sum())), repr(float(m.trace())))


if __name__ == "__main__":
    main()
