"""Fault tables: every check of `commtest verify mary` and `commtest verify
tightness` can fail.

Each row names one check of a suite and one plausible fault, applied with
monkeypatch to one kernel; with the fault in place the check must read
passed=False (for a check run once per rho, every run of it). The rows are
pinned to the suite's check names, so a new check fails here until it gets a
row.
"""

import dataclasses
import re

import numpy as np
import pytest

from commtest import Channel, DiscreteRV, Distribution, decision, mary, quantizer, revmarkov, verify
from commtest.verify import mary_suite, tightness_suite

# Small sizes keep each suite run to about a tenth of a second.
MARY_SIZES = dict(seed=0, tournament_trials=8, channel_checks=5, jl_seeds=10)


def reduction_compares_a_hypothesis_with_itself(monkeypatch):
    """Pair row (i, j) indicates {p_i > p_i} (a jj -> ii typo): every input
    lands on the slack output, so no pair keeps any distance."""

    def faulty(family):
        rows = np.zeros((family.m * (family.m - 1) // 2, family.k))
        return Channel(np.vstack([rows, np.ones(family.k)]))

    monkeypatch.setattr(mary, "pairwise_indicator_reduction", faulty)


def chi_square_drops_the_base_weights(monkeypatch):
    """The centered inner product is not divided by the base masses."""

    def faulty(base, a, b):
        u = base.probs
        return float(((a.probs - u) * (b.probs - u)).sum())

    monkeypatch.setattr(mary, "chi_square_inner", faulty)


def total_variation_drops_the_absolute_value(monkeypatch):
    """TV sums the signed differences, which cancel."""

    def faulty(p, q):
        return 0.5 * float((p.probs - q.probs).sum())

    monkeypatch.setattr(verify, "total_variation", faulty)


def jl_floor_drops_the_acceptance_factor(monkeypatch):
    """The sketch's distance floor ignores the pilot-calibrated `accept`."""
    exact = mary.jl_distance_floor
    monkeypatch.setattr(mary, "jl_distance_floor",
                        lambda family, out_size, accept=None: exact(family, out_size, 1.0))


def hadamard_family_records_one_percent_less_eps(monkeypatch):
    """The Hadamard family records 0.99 eps as its eps: the chi-square budget
    comes out 2% too small, so the sign channels, which meet it exactly, exceed it."""
    exact = mary.hadamard_instance

    def faulty(m, eps):
        fam = exact(m, eps)
        return mary.HypothesisFamily(fam.dists, base=fam.base, hadamard_eps=0.99 * eps)

    monkeypatch.setattr(mary, "hadamard_instance", faulty)


def squeeze_bound_shrinks_by_a_tenth(monkeypatch):
    """The certified upper bound comes out 0.9 times too small."""
    exact = mary.verify_identical_d2_bound

    def faulty(*args, **kwargs):
        rep = exact(*args, **kwargs)
        return dataclasses.replace(rep, sup_min_hellinger=0.9 * rep.sup_min_hellinger)

    monkeypatch.setattr(mary, "verify_identical_d2_bound", faulty)


def sampler_draws_from_the_next_hypothesis(monkeypatch):
    """The truth's sampler draws from hypothesis truth + 1 (mod M)."""
    exact = mary.counts_sampler
    nxt = {}
    for m in (4, 8):
        dists = mary.hadamard_instance(m, 0.4).dists
        nxt.update({d.probs.tobytes(): dists[(a + 1) % m] for a, d in enumerate(dists)})
    monkeypatch.setattr(mary, "counts_sampler", lambda dist: exact(nxt[dist.probs.tobytes()]))


def game_llr_swaps_the_pair(monkeypatch):
    """Each game's LLR table reads log(T p_j / T p_i): the weaker side wins."""
    exact = decision.message_llr
    monkeypatch.setattr(decision, "message_llr", lambda channel, p, q: exact(channel, q, p))


MARY_FAULTS = {
    "reduction_guarantee": reduction_compares_a_hypothesis_with_itself,
    "hadamard_orthogonality": chi_square_drops_the_base_weights,
    "hadamard_min_tv": total_variation_drops_the_absolute_value,
    "jl_success_rate": jl_floor_drops_the_acceptance_factor,
    "chi_square_budget": hadamard_family_records_one_percent_less_eps,
    "binary_squeeze_sandwich": squeeze_bound_shrinks_by_a_tenth,
    "tournament_nonadaptive_m4": sampler_draws_from_the_next_hypothesis,
    "tournament_adaptive_m8": game_llr_swaps_the_pair,
}


def test_every_mary_check_has_a_row_and_passes_without_its_fault():
    results = mary_suite(**MARY_SIZES)
    assert [r.name for r in results] == list(MARY_FAULTS)
    assert all(r.passed for r in results)


@pytest.mark.parametrize("check", list(MARY_FAULTS))
def test_fault_fails_its_mary_check(monkeypatch, check):
    MARY_FAULTS[check](monkeypatch)
    results = {r.name: r for r in mary_suite(**MARY_SIZES)}
    assert results[check].passed is False


def instance_values_one_power_of_two_low(monkeypatch):
    """The tightness instance takes values 2^-(i+1), an exponent off by one:
    its mean is r k / 2."""
    exact = revmarkov.tightness_instance

    def faulty(rho):
        rv = exact(rho)
        return DiscreteRV(rv.values / 2.0, rv.masses, rv.beta)

    monkeypatch.setattr(revmarkov, "tightness_instance", faulty)


def objective_cells_exclude_their_level(monkeypatch):
    """Each grid cell counts the atoms above its level, not at or above it
    (searchsorted side="right"): the top atom's mass drops out."""

    def faulty(rv, grids):
        cum = np.concatenate(([0.0], np.cumsum(rv.masses)))
        cells = np.diff(cum[np.searchsorted(rv.values, grids, side="right")], axis=1)
        return (grids[:, None, :-1] @ cells[:, :, None])[:, 0, 0]

    monkeypatch.setattr(revmarkov, "_objectives", faulty)


def hellinger_instance_perturbs_by_y_over_2(monkeypatch):
    """The Hellinger-tight pair perturbs by y/2 in place of sqrt(y/2): d_h^2
    falls below the sandwich and the ratio stops growing as rho falls."""

    def faulty(rho):
        rv = revmarkov.tightness_instance(rho)
        q_half, delta = 0.5 * rv.masses, rv.values / 2.0
        return (Distribution(np.concatenate([q_half * (1.0 + delta), q_half * (1.0 - delta)])),
                Distribution(np.concatenate([q_half, q_half])))

    monkeypatch.setattr(quantizer, "hell_tight_instance", faulty)


def oracle_cuts_one_class_low(monkeypatch):
    """The threshold oracle puts each cut one likelihood-ratio class below
    its dynamic program's choice: the designer beats it."""
    exact = quantizer._best_cuts
    monkeypatch.setattr(quantizer, "_best_cuts", lambda score, t: [c - 1 for c in exact(score, t)])


TIGHTNESS_FAULTS = {
    "identities": instance_values_one_power_of_two_low,
    "threshold_sum_exact": objective_cells_exclude_their_level,
    "hell_sandwich": hellinger_instance_perturbs_by_y_over_2,
    "tight_ratio": oracle_cuts_one_class_low,
    "tight_ratio_monotone": hellinger_instance_perturbs_by_y_over_2,
}


def tightness_checks():
    """tightness_suite's results by check name, the rho suffix stripped."""
    checks = {}
    for r in tightness_suite(seed=0):
        checks.setdefault(re.sub(r"_rho_[^_]*$", "", r.name), []).append(r)
    return checks


def test_every_tightness_check_has_a_row_and_passes_without_its_fault():
    checks = tightness_checks()
    assert list(checks) == list(TIGHTNESS_FAULTS)
    assert all(r.passed for runs in checks.values() for r in runs)


@pytest.mark.parametrize("check", list(TIGHTNESS_FAULTS))
def test_fault_fails_its_tightness_check(monkeypatch, check):
    TIGHTNESS_FAULTS[check](monkeypatch)
    runs = tightness_checks()[check]
    assert runs and not any(r.passed for r in runs)
