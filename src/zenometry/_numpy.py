"""numpy, imported on first use.

Modules write ``from ._numpy import np``.  The first attribute read on
``np`` imports numpy; each attribute read is then cached on the handle, so
later reads are plain attribute lookups.  Commands that never touch an array
(``noise-sweep``, ``channel-calibration``) never import numpy.
"""


class _Numpy:
    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
