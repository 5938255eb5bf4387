"""Counter-based random streams for reproducible, order-independent sampling.

Stream ``(seed, domain, index)`` is Philox keyed by
``[seed, domain << 48 | index]`` from counter 0.  :func:`substream` builds a
fresh generator for one stream; :class:`StreamFamily` serves every index of
one ``(seed, domain)`` from a single generator that it rekeys, with the same
draws.  The generator that :meth:`StreamFamily.at` returns stays valid only
until the next ``at()`` call on that family.
"""

from __future__ import annotations

from ._numpy import np

# Domain tags keep streams for different purposes disjoint under one seed.
FRINGE_SETTINGS = 1
MONTE_CARLO_TRIALS = 2

_INDEX_BITS = 48


def _key(seed: int, domain: int, index: int) -> np.ndarray:
    """Philox key of stream ``(seed, domain, index)``, range-checked."""
    seed = int(seed)
    domain = int(domain)
    index = int(index)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not (0 <= domain < 2**(64 - _INDEX_BITS)
            and 0 <= index < 2**_INDEX_BITS):
        raise ValueError("stream index out of range")
    return np.array([seed, (domain << _INDEX_BITS) | index], dtype=np.uint64)


def substream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent generator keyed by ``(seed, domain, index)``.

    Streams are Philox counter-based: draws from ``substream(s, d, i)`` are
    unaffected by draws from any other ``(domain, index)`` pair, so work items
    may run in any order (or concurrently) and still reproduce the sequential
    results bit for bit.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, domain, index)))


class StreamFamily:
    """The streams ``substream(seed, domain, index)`` for every ``index``,
    served by one reused generator.

    ``at(index)`` rekeys the family's one Philox through its documented
    ``state`` dict (key of the stream, counter 0, empty buffer, no cached
    32-bit half) and returns the family's generator, which then draws exactly
    what ``substream(seed, domain, index)`` would.  That generator stays
    valid only until the next ``at()``: rekeying moves it to the new stream.
    """

    def __init__(self, seed: int, domain: int) -> None:
        self._seed = seed
        self._domain = domain
        self._bit_generator = np.random.Philox(key=_key(seed, domain, 0))
        self._generator = np.random.Generator(self._bit_generator)
        # Counter and buffer words of a fresh ``Philox``; the state setter
        # copies them.
        self._zero_words = np.zeros(4, dtype=np.uint64)

    def at(self, index: int) -> np.random.Generator:
        """The family's generator, rekeyed to stream ``index``."""
        self._bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": self._zero_words,
                      "key": _key(self._seed, self._domain, index)},
            "buffer": self._zero_words,
            "buffer_pos": 4,  # past the last word: nothing buffered
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator
