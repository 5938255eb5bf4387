"""Frequency metrology with GHZ and product probes under tunable dephasing.

The package simulates Ramsey-type parity fringes for entangled and product
probes in dephasing environments (memoryless, Zeno-regime quadratic, or
tabulated), estimates the per-total-time frequency variance from those
fringes, and compares the measured scaling against the standard quantum
limit, the Zeno limit, and the Heisenberg envelope.  A beam-displacer channel
model maps photonic geometry onto effective interrogation times, and a dense
density-matrix oracle cross-checks every closed form.

The public API is ``__all__``: each module's ``__all__``, republished here.
"""

from . import analysis, channel, config, decay, estimation, fringes, probes
from .analysis import *
from .channel import *
from .config import *
from .decay import *
from .estimation import *
from .fringes import *
from .probes import *

__version__ = "0.1.0"

__all__ = ["__version__", *decay.__all__, *channel.__all__, *probes.__all__,
           *fringes.__all__, *estimation.__all__, *analysis.__all__,
           *config.__all__]
