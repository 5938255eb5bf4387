"""Frequency metrology with GHZ and product probes under tunable dephasing.

The package simulates Ramsey-type parity fringes for entangled and product
probes in dephasing environments (memoryless, Zeno-regime quadratic, or
tabulated), estimates the per-total-time frequency variance from those
fringes, and compares the measured scaling against the standard quantum
limit, the Zeno limit, and the Heisenberg envelope.  A beam-displacer channel
model maps photonic geometry onto effective interrogation times, and a dense
density-matrix oracle cross-checks every closed form.

The public API is ``__all__``: each module's ``__all__``, republished here.
``import zenometry`` loads no submodule.  The first read of a public name
imports the modules of ``_MODULES`` in order, up to the one whose ``__all__``
holds it, and caches the name here.  The order follows the imports, so a
name loads its module and that module's imports (a ``fringes``, ``channel``
or ``config`` name also loads the modules listed before it).  The oracle's
names, in ``decay`` and ``probes``, load neither ``estimation``, ``config``
nor ``channel``.  Reading ``__all__`` loads all seven modules and lists their
names in that order; ``dir()`` lists them too.
"""

__version__ = "0.1.0"

# Import-dependency order: each module imports only modules listed before it.
_MODULES = ("decay", "fringes", "probes", "estimation", "analysis", "channel",
            "config")


def __getattr__(name):
    if name in _MODULES:
        # the builtin import, unlike importlib.import_module, is timed by
        # ``python -X importtime``; it binds the submodule here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name == "__all__":
        value = ["__version__"]
        for module_name in _MODULES:
            value += __getattr__(module_name).__all__
    else:
        for module_name in _MODULES:
            module = __getattr__(module_name)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
