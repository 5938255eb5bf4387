"""Stream families draw exactly what fresh substreams draw."""

import re

import numpy as np
import pytest

from zenometry.rng import (
    FRINGE_SETTINGS,
    MONTE_CARLO_TRIALS,
    StreamFamily,
    substream,
)

LAST_INDEX = 2**48 - 1


def draws(gen):
    """One draw of each kind.  The uint32 draw comes last and leaves half of
    a 64-bit word cached (``has_uint32``), which a rekey must clear."""
    return (gen.poisson(np.array([0.0, 3.0, 250.0, 1e6])),
            gen.binomial(1000, 0.3),
            gen.random(),
            gen.integers(0, 2**32, size=3, dtype=np.uint32))


def assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("domain", [FRINGE_SETTINGS, MONTE_CARLO_TRIALS])
def test_family_matches_fresh_substreams(domain):
    seed = 2**64 - 5
    family = StreamFamily(seed, domain)
    for index in (5, 0, 5, 1, LAST_INDEX, 7, 0, LAST_INDEX, 1, 7):
        assert_same(draws(family.at(index)),
                    draws(substream(seed, domain, index)))


def test_rekey_restarts_a_stream_mid_draw():
    family = StreamFamily(11, MONTE_CARLO_TRIALS)
    gen = family.at(3)
    gen.integers(0, 10, dtype=np.uint32)  # half of a word left cached
    gen.random(5)                         # counter and buffer moved on
    assert_same(draws(family.at(3)), draws(substream(11, MONTE_CARLO_TRIALS, 3)))


def test_domains_and_seeds_are_disjoint():
    first = draws(StreamFamily(11, FRINGE_SETTINGS).at(0))
    for other in (StreamFamily(11, MONTE_CARLO_TRIALS).at(0),
                  StreamFamily(12, FRINGE_SETTINGS).at(0)):
        assert not np.array_equal(first[3], draws(other)[3])


@pytest.mark.parametrize("seed, domain, index", [
    (-1, FRINGE_SETTINGS, 0),
    (2**64, FRINGE_SETTINGS, 0),
    (0, -1, 0),
    (0, 2**16, 0),
    (0, FRINGE_SETTINGS, -1),
    (0, FRINGE_SETTINGS, 2**48),
])
def test_out_of_range_raises_like_substream(seed, domain, index):
    with pytest.raises(ValueError) as want:
        substream(seed, domain, index)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        StreamFamily(seed, domain).at(index)


def test_out_of_range_index_leaves_family_usable():
    family = StreamFamily(3, FRINGE_SETTINGS)
    with pytest.raises(ValueError, match="stream index out of range"):
        family.at(2**48)
    assert_same(draws(family.at(2)), draws(substream(3, FRINGE_SETTINGS, 2)))
