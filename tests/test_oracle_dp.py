"""The dynamic-programming oracles against plain subset enumeration.

The enumerators below are reference code only: they try every (D-1)-subset
of cut candidates, which is exact but exponential, and keep the first
strictly best subset in lexicographic order.
"""

import dataclasses
import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from commtest import (
    DegenerateInputError,
    DiscreteRV,
    Distribution,
    ThresholdSet,
    brute_force_revmarkov,
    brute_force_threshold_channel,
    builtin_fdiv,
    fdiv_ratio,
    likelihood_ratios,
    quantizer,
    revmarkov_objective,
    threshold_channel,
    verify,
)

SPECS = ("hellinger", "sym_kl", "triangular", "tv", "sym_chi_1.5")
OUT_SIZES = (2, 3, 4, 8)


def enumerate_threshold_channel(spec, p, q, out_size):
    """(best ratio, its thresholds, runner-up ratio) over all threshold sets."""
    ratios = likelihood_ratios(p, q)
    support = (p.probs > 0) | (q.probs > 0)
    finite = np.unique(ratios[support & np.isfinite(ratios)])
    cuts = [float(v) for v in finite[1:]]
    if np.any(np.isinf(ratios[support])):
        cuts.append(2.0 * float(finite[-1]) + 1.0)
    if not cuts:
        raise DegenerateInputError("only one likelihood-ratio class present")
    t = min(out_size - 1, len(cuts))
    found = []
    for combo in combinations(cuts, t):
        levels = list(combo) + [combo[-1]] * (out_size - 1 - t)
        gamma = ThresholdSet(levels)
        found.append((fdiv_ratio(spec, p, q, threshold_channel(p, q, gamma)), levels))
    best = min(found, key=lambda item: item[0])  # first of the tied minima
    ratios_sorted = sorted(r for r, _ in found)
    runner_up = ratios_sorted[1] if len(found) > 1 else math.inf
    return best[0], best[1], runner_up


def enumerate_revmarkov(rv, out_size):
    """Best grid over all (D-1)-subsets of positive atom values."""
    candidates = [float(v) for v in rv.values if v > 0]
    t = min(out_size - 1, len(candidates))
    best = None
    for combo in combinations(candidates, t):
        levels = list(combo) + [combo[-1]] * (out_size - 1 - t)
        nus = tuple(levels) + (rv.beta,)
        val = revmarkov_objective(rv, nus)
        if best is None or val > best[1]:
            best = (nus, val)
    return best


def random_pair(rng):
    """Random pair with zero masses (ratios 0 and inf) and exact ratio ties
    from quarter-scaled copies of atoms (scaling by 4 is exact)."""
    k = int(rng.integers(2, 11))
    a, b = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    for v in (a, b):
        if rng.random() < 0.4:
            v[rng.integers(0, k)] = 0.0
    copies = rng.integers(0, k, int(rng.integers(0, 3)))
    a = np.concatenate([a, a[copies] / 4.0])
    b = np.concatenate([b, b[copies] / 4.0])
    return Distribution(a / a.sum()), Distribution(b / b.sum())


class TestThresholdOracle:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(2024)
        compared = gamma_checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(300):
                spec = builtin_fdiv(SPECS[i % len(SPECS)])
                d = OUT_SIZES[(i // len(SPECS)) % len(OUT_SIZES)]
                p, q = random_pair(rng)
                try:
                    ref_ratio, ref_levels, runner_up = enumerate_threshold_channel(
                        spec, p, q, d)
                except DegenerateInputError:
                    with pytest.raises(DegenerateInputError):
                        brute_force_threshold_channel(spec, p, q, d)
                    continue
                res = brute_force_threshold_channel(spec, p, q, d)
                assert res.gamma.out_size == d
                assert res.ratio_achieved == pytest.approx(ref_ratio, rel=1e-12)
                if runner_up - ref_ratio > 1e-12 * ref_ratio:
                    assert res.gamma.values.tolist() == ref_levels
                    gamma_checked += 1
                compared += 1
        assert compared >= 290 and gamma_checked >= 200

    def test_unique_optimum_gives_identical_result(self):
        # hellinger, full support, distinct ratios: the enumerated optimum
        # and the DP's must be the same channel with bit-identical numbers
        p = Distribution([0.4, 0.1, 0.2, 0.3])
        q = Distribution([0.1, 0.3, 0.2, 0.4])
        spec = builtin_fdiv("hellinger")
        ratio, levels, _ = enumerate_threshold_channel(spec, p, q, 3)
        res = brute_force_threshold_channel(spec, p, q, 3)
        assert res.gamma.values.tolist() == levels
        assert res.ratio_achieved == ratio


class TestRevmarkovOracle:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(2025)
        compared = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(300):
                vals = np.unique(rng.uniform(0.0, 1.0, int(rng.integers(1, 13))))
                if i % 3 == 0:
                    vals = np.concatenate(([0.0], vals))  # a value-0 atom
                rv = DiscreteRV(vals, rng.dirichlet(np.ones(vals.size)), 1.0)
                d = OUT_SIZES[i % len(OUT_SIZES)]
                nus, val = enumerate_revmarkov(rv, d)
                grid = brute_force_revmarkov(rv, d)
                assert grid.nus == nus
                assert grid.achieved == val
                compared += 1
        assert compared == 300


class TestTightRatioCheck:
    def test_fails_when_oracle_above_designer(self, monkeypatch):
        exact = quantizer.brute_force_threshold_channel

        def inflated(*args):
            res = exact(*args)
            return dataclasses.replace(res, ratio_achieved=1.01 * res.ratio_achieved)

        checks = {r.name: r for r in verify.tightness_suite(0, rhos=(1e-3,))}
        assert checks["tight_ratio_rho_0.001"].passed
        monkeypatch.setattr(quantizer, "brute_force_threshold_channel", inflated)
        checks = {r.name: r for r in verify.tightness_suite(0, rhos=(1e-3,))}
        assert not checks["tight_ratio_rho_0.001"].passed
