"""The chunked binary-channel squeeze sweep against a per-channel loop.

The loop below is reference code only: it scores one channel and one
hypothesis pair at a time and keeps the first strictly best channel and,
within it, the first strictly worst pair. It squares with a product, which
is correctly rounded, as the sweep does. Squaring with `x ** 2` on a Python
float goes through the C library's pow, which can return the neighbour of
the correctly rounded square; the sweep agrees with such a loop to a few
units in the last place.
"""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from commtest import (
    Distribution,
    HypothesisFamily,
    hadamard_instance,
    mary,
    verify_identical_d2_bound,
)
from commtest.mary import BinaryChannelBoundReport


def loop_d2_bound(family, channel_samples=0, seed=0, square=lambda x: x * x):
    k, m = family.k, family.m
    probs = np.vstack([d.probs for d in family.dists])
    masks = np.arange(2 ** k)
    bits = ((masks[:, None] >> np.arange(k)[None, :]) & 1).astype(float)
    rng = np.random.default_rng(seed)
    if channel_samples > 0:
        bits = np.vstack([bits, rng.random((channel_samples, k))])
    a = np.clip(probs @ bits.T, 0.0, 1.0)
    best_min, best_pair = -1.0, (0, 1)
    for c in range(a.shape[1]):
        col = a[:, c]
        worst, worst_pair = math.inf, (0, 1)
        for i, j in combinations(range(m), 2):
            ds = math.sqrt(col[i]) - math.sqrt(col[j])
            dt = math.sqrt(1 - col[i]) - math.sqrt(1 - col[j])
            h = math.sqrt(max(square(ds) + square(dt), 0.0))
            if h < worst:
                worst, worst_pair = h, (i, j)
        if worst > best_min:
            best_min, best_pair = worst, worst_pair
    eps2 = family.max_pairwise_hellinger
    return BinaryChannelBoundReport(
        sup_min_hellinger=best_min,
        max_pairwise_hellinger=eps2,
        constant=best_min * m / eps2,
        witness_pair=best_pair,
        exhaustive=True,
    )


def random_family(rng, rounded=False):
    """M in 2..7 hypotheses on k in 1..10 atoms; rounded masses are
    multiples of 1/8, so sums over atoms are exact and channels tie."""
    k, m = int(rng.integers(1, 11)), int(rng.integers(2, 8))
    rows = rng.dirichlet(np.ones(k), size=m)
    if rounded:
        counts = rng.multinomial(8, np.ones(k) / k, size=m)
        rows = counts / 8.0
    if len({tuple(r) for r in rows}) < m:
        return None
    return HypothesisFamily([Distribution(r) for r in rows])


def assert_matches_loop(family, channel_samples=0, seed=0):
    expected = loop_d2_bound(family, channel_samples, seed).to_json()
    assert verify_identical_d2_bound(family, channel_samples, seed).to_json() == expected


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestSqueezeSweep:
    def test_random_families_match_loop(self):
        rng = np.random.default_rng(404)
        compared = 0
        for i in range(220):
            family = random_family(rng)
            if family is None:
                continue
            samples = int(rng.integers(0, 40))
            assert_matches_loop(family, samples, seed=i)
            pow_loop = loop_d2_bound(family, samples, i, square=lambda x: x ** 2)
            rep = verify_identical_d2_bound(family, samples, seed=i)
            assert rep.sup_min_hellinger == pytest.approx(pow_loop.sup_min_hellinger,
                                                          rel=4 * 2.0 ** -52, abs=0.0)
            compared += 1
        assert compared >= 200

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_rounded_masses_with_ties_match_loop(self, monkeypatch, chunk):
        # tied channels with different witness pairs are common here; chunks
        # of 1 and 3 channels put most ties across a chunk boundary
        if chunk is not None:
            monkeypatch.setattr(mary, "_SWEEP_CHUNK", chunk)
        rng = np.random.default_rng(405)
        compared = 0
        for i in range(80):
            family = random_family(rng, rounded=True)
            if family is None:
                continue
            assert_matches_loop(family, int(rng.integers(0, 5)), seed=i)
            compared += 1
        assert compared >= 40

    def test_samples_cross_chunk_boundaries(self):
        rng = np.random.default_rng(406)
        family = HypothesisFamily([Distribution(r) for r in rng.dirichlet(np.ones(3), size=4)])
        n = mary._SWEEP_CHUNK + 5  # 8 masks, then samples past the first chunk
        assert_matches_loop(family, n, seed=3)

    def test_tie_across_default_chunks_matches_loop(self):
        # dyadic masses: a channel and its complement score exactly the same,
        # and at k = 13 they sit in different chunks
        rng = np.random.default_rng(407)
        rows = rng.multinomial(64, np.ones(13) / 13, size=3) / 64.0
        family = HypothesisFamily([Distribution(r) for r in rows])
        assert 2 ** family.k > mary._SWEEP_CHUNK
        assert_matches_loop(family)

    def test_hadamard_with_samples_matches_loop(self):
        assert_matches_loop(hadamard_instance(8, 0.4), 200, seed=0)
