"""The closed-form binary-channel squeeze bound against a per-channel loop.

The loop below is reference code only: it scores one channel and one
hypothesis pair at a time and keeps the best min pairwise distance. Over the
2^k deterministic channels plus the sampled ones it is the exhaustive sweep
the verifier once ran; over the sampled rows alone it must reproduce the
report's `lower` bit for bit. It squares with a product, which is correctly
rounded, as the verifier does. Squaring with `x ** 2` on a Python float goes
through the C library's pow, which can return the neighbour of the correctly
rounded square; the verifier agrees with such a loop to a few units in the
last place.
"""

import dataclasses
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
from commtest.verify import mary_suite


def deterministic_rows(k):
    masks = np.arange(2 ** k)
    return ((masks[:, None] >> np.arange(k)[None, :]) & 1).astype(float)


def sampled_rows(k, channel_samples, seed):
    return np.random.default_rng(seed).random((channel_samples, k))


def loop_best_min(family, rows, square=lambda x: x * x):
    """Best min pairwise d_h over the binary channels with
    P(output 1 | atom) given by each row; 0.0 when there are none."""
    m = family.m
    probs = np.vstack([d.probs for d in family.dists])
    a = np.clip(probs @ rows.T, 0.0, 1.0)
    best_min = 0.0
    for c in range(a.shape[1]):
        col = a[:, c]
        worst = math.inf
        for i, j in combinations(range(m), 2):
            ds = math.sqrt(col[i]) - math.sqrt(col[j])
            dt = math.sqrt(1 - col[i]) - math.sqrt(1 - col[j])
            worst = min(worst, math.sqrt(max(square(ds) + square(dt), 0.0)))
        best_min = max(best_min, worst)
    return best_min


def random_family(rng, rounded=False):
    """M in 2..7 hypotheses on k in 2..10 atoms; rounded masses are
    multiples of 1/8, so sums over atoms are exact and channels tie."""
    k, m = int(rng.integers(2, 11)), int(rng.integers(2, 8))
    rows = rng.dirichlet(np.ones(k), size=m)
    if rounded:
        counts = rng.multinomial(8, np.ones(k) / k, size=m)
        rows = counts / 8.0
    if len({tuple(r) for r in rows}) < m:
        return None
    return HypothesisFamily([Distribution(r) for r in rows])


def assert_sandwiches_loop(family, channel_samples=0, seed=0, rep=None):
    if rep is None:
        rep = verify_identical_d2_bound(family, channel_samples, seed)
    sampled = sampled_rows(family.k, channel_samples, seed)
    assert rep.lower == loop_best_min(family, sampled)
    exhaustive = loop_best_min(family, np.vstack([deterministic_rows(family.k), sampled]))
    assert rep.sup_min_hellinger >= exhaustive * (1 - 1e-12)
    assert rep.sup_min_hellinger <= family.max_pairwise_hellinger * (1 + 1e-12)
    return rep


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestSqueezeSweep:
    def test_random_families_match_loop(self):
        rng = np.random.default_rng(404)
        compared = 0
        for i in range(330):
            family = random_family(rng)
            if family is None:
                continue
            samples = int(rng.integers(0, 40))
            rep = assert_sandwiches_loop(family, samples, seed=i)
            pow_lower = loop_best_min(family, sampled_rows(family.k, samples, i),
                                      square=lambda x: x ** 2)
            assert rep.lower == pytest.approx(pow_lower, rel=4 * 2.0 ** -52, abs=0.0)
            compared += 1
        assert compared >= 300

    @pytest.mark.parametrize("samples", [None, 1, 3])
    def test_rounded_masses_with_ties_match_loop(self, samples):
        # dyadic masses: many deterministic channels collapse a pair exactly
        # or tie with their complement; None leaves channel_samples at its
        # default, which must read as no sampled channel
        rng = np.random.default_rng(405)
        compared = 0
        for i in range(80):
            family = random_family(rng, rounded=True)
            if family is None:
                continue
            if samples is None:
                rep = assert_sandwiches_loop(family, rep=verify_identical_d2_bound(family))
                assert rep.lower == 0.0
            else:
                assert_sandwiches_loop(family, samples, seed=i)
            compared += 1
        assert compared >= 40

    def test_hadamard_with_samples_matches_loop(self):
        assert_sandwiches_loop(hadamard_instance(8, 0.4), 200, seed=0)


class TestSandwichCheck:
    def test_passes_on_the_certified_bound(self):
        results = {r.name: r for r in mary_suite(seed=3, tournament_trials=2,
                                                 channel_checks=5, jl_seeds=2)}
        check = results["binary_squeeze_sandwich"]
        assert check.passed and 0.0 < check.value <= 1.0
        assert check.detail == {"families": 100, "samples": 500}

    def test_fails_when_the_bound_shrinks(self, monkeypatch):
        exact = mary.verify_identical_d2_bound

        def shrunk(*args, **kwargs):
            rep = exact(*args, **kwargs)
            return dataclasses.replace(rep, sup_min_hellinger=0.5 * rep.sup_min_hellinger)

        monkeypatch.setattr(mary, "verify_identical_d2_bound", shrunk)
        results = {r.name: r for r in mary_suite(seed=3, tournament_trials=2,
                                                 channel_checks=5, jl_seeds=2)}
        assert not results["binary_squeeze_sandwich"].passed
        assert results["binary_squeeze_sandwich"].value > 1.0
