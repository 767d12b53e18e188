"""Fault tables: every check of every `commtest verify` suite can fail.

Each row names one check of a suite and one plausible fault, applied with
monkeypatch to one kernel; with the fault in place the check must read
passed=False (for a check run once per rho, eps or divergence, every run of
it). The rows are pinned to the suite's check names, and the tables to
`verify.SUITES`, so a new check or suite fails here until it gets a row.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from commtest import (Channel, DiscreteRV, Distribution, decision, mary, quantizer, revmarkov,
                      robust, testing, verify)
from commtest.core import FDivergenceSpec, _fdiv_sum, hellinger_sq

# Small sizes keep each suite run to a few tenths of a second at most.
SIZES = {
    "facts": dict(pairs=50, k_max=8, grid_points=50),
    "reverse-markov": dict(n_rvs=20),
    "quantizer": dict(pairs=150, oracle_pairs=20),
    "robust": dict(setups=20),
    "mary": dict(tournament_trials=8, channel_checks=5, jl_seeds=10),
    "tightness": {},
}


def tv_drops_the_half(monkeypatch):
    """TV sums |p - q| without the 1/2: TV^2 exceeds d_h^2 on close pairs."""
    monkeypatch.setattr(verify, "total_variation",
                        lambda p, q: float(np.abs(p.probs - q.probs).sum()))


def affinity_is_one_minus_hellinger(monkeypatch):
    """The affinity reads 1 - d_h^2 in place of 1 - d_h^2 / 2: it stops
    multiplying over product laws."""
    monkeypatch.setattr(verify, "hellinger_affinity", lambda p, q: 1.0 - hellinger_sq(p, q))


def divergence_drops_the_last_atom(monkeypatch):
    """I_f(p, q) leaves out the last atom's summand, so a channel's image
    can carry more than the input."""
    monkeypatch.setattr(verify, "f_divergence",
                        lambda spec, p, q: _fdiv_sum(spec, p.probs[:-1], q.probs[:-1]))


def hellinger_takes_the_half_convention(monkeypatch):
    """d_h^2 comes out as half the sum of (sqrt p - sqrt q)^2, the other
    common convention: d_h falls below sqrt(b) - sqrt(a) on Bernoulli pairs."""
    monkeypatch.setattr(verify, "hellinger_sq", lambda p, q: 0.5 * hellinger_sq(p, q))


def generator_read_at_one_plus_x(monkeypatch):
    """evaluate(x) returns f(1 + x), the sandwich's argument: f(1) reads f(2) > 0."""
    exact = FDivergenceSpec.evaluate
    monkeypatch.setattr(FDivergenceSpec, "evaluate", lambda spec, x: exact(spec, 1.0 + x))


FACTS_FAULTS = {
    "fact_sandwich": tv_drops_the_half,
    "fact_tensor": affinity_is_one_minus_hellinger,
    "fact_dpi": divergence_drops_the_last_atom,
    "bernoulli_sandwich": hellinger_takes_the_half_convention,
    "generator_constants": generator_read_at_one_plus_x,
}


def best_grid_keeps_the_top_atoms(monkeypatch):
    """`reverse_markov_best` scores the top-atom grid alone, with no doubling
    grid: on flat laws over hundreds of atoms it falls below the floor."""
    monkeypatch.setattr(revmarkov, "_doubling_rows",
                        lambda rv, out_size: iter([np.empty((0, out_size))]))


def revmarkov_oracle_cuts_one_atom_low(monkeypatch):
    """The reverse-Markov oracle puts each level one atom below its dynamic
    program's choice: the designed grid beats it."""
    exact = revmarkov._best_cuts
    monkeypatch.setattr(revmarkov, "_best_cuts", lambda score, t: [c - 1 for c in exact(score, t)])


def best_grid_keeps_the_doubling_grid(monkeypatch):
    """The top-atom grid puts every level but beta at 0 and scores 0, so
    `reverse_markov_best` returns a doubling grid; the top-atom grid is
    exact when every atom gets a level."""
    monkeypatch.setattr(revmarkov, "_top_row",
                        lambda rv, out_size: [0.0] * (out_size - 1) + [rv.beta])


REVERSE_MARKOV_FAULTS = {
    "guarantee_floor": best_grid_keeps_the_top_atoms,
    "oracle_dominance": revmarkov_oracle_cuts_one_atom_low,
    "exact_when_budget_large": best_grid_keeps_the_doubling_grid,
}


def designer_keeps_its_worst_candidate(monkeypatch):
    """The designer picks its candidate by max in place of min (a module
    global `min` shadows the builtin): an infinite ratio wins where some
    candidate collapses p and q."""

    def faulty(*args, key=None):
        return min(*args) if key is None else max(*args, key=key)

    monkeypatch.setattr(quantizer, "min", faulty, raising=False)


def designer_keeps_its_worst_finite_candidate(monkeypatch):
    """As above, but among the candidates of finite ratio: the lossless
    separating channel loses wherever it is one of several."""

    def faulty(*args, key=None):
        if key is None:
            return min(*args)
        finite = [item for item in args[0] if math.isfinite(key(item))]
        return max(finite or args[0], key=key)

    monkeypatch.setattr(quantizer, "min", faulty, raising=False)


def ratio_taken_upside_down(monkeypatch):
    """The preservation ratio reads I_f(Tp, Tq) / I_f(p, q)."""
    exact = quantizer._ratio_of
    monkeypatch.setattr(quantizer, "_ratio_of", lambda num, den: 1.0 / exact(num, den))


def oracle_cuts_one_class_low(monkeypatch):
    """The threshold oracle puts each cut one likelihood-ratio class below
    its dynamic program's choice: the designer beats it."""
    exact = quantizer._best_cuts
    monkeypatch.setattr(quantizer, "_best_cuts", lambda score, t: [c - 1 for c in exact(score, t)])


QUANTIZER_FAULTS = {
    "hellinger_ceiling": designer_keeps_its_worst_candidate,
    "ratio_at_least_one": ratio_taken_upside_down,
    "exact_when_classes_fit": designer_keeps_its_worst_finite_candidate,
    "oracle_dominance": oracle_cuts_one_class_low,
    "general_ceiling": designer_keeps_its_worst_candidate,
}


def lfd_moves_one_percent_less(monkeypatch):
    """The least favorable pair moves 0.99 eps of mass on each side."""
    exact = robust.huber_lfd
    monkeypatch.setattr(robust, "huber_lfd", lambda setup: exact(
        robust.ContaminationSetup(setup.p, setup.q, 0.99 * setup.epsilon)))


def clip_high_off_by_1e9(monkeypatch):
    """The LFD reports its upper clip constant 1e-9 relative too high."""
    exact = robust.huber_lfd

    def faulty(setup):
        lfd = exact(setup)
        return dataclasses.replace(lfd, clip_high=lfd.clip_high * (1.0 + 1e-9))

    monkeypatch.setattr(robust, "huber_lfd", faulty)


def contamination_keeps_the_spike(monkeypatch):
    """The contaminated p of the blinding instance keeps its eps^(1+alpha) spike."""
    exact = robust.example_nonrobust_instance

    def faulty(eps, alpha):
        p, q, _, channel = exact(eps, alpha)
        return p, q, p, channel

    monkeypatch.setattr(robust, "example_nonrobust_instance", faulty)


def phase_instance_drops_its_spike(monkeypatch):
    """The phase-transition p moves its eps^(1+delta) atom onto the first atom."""
    exact = robust.example_phase_transition_instance

    def faulty(eps, alpha, beta, delta):
        p, q = exact(eps, alpha, beta, delta)
        probs = p.probs.copy()
        probs[0], probs[3] = probs[0] + probs[3], 0.0
        return Distribution(probs), q

    monkeypatch.setattr(robust, "example_phase_transition_instance", faulty)


def scheffe_compares_p_with_itself(monkeypatch):
    """The Scheffe set is {p >= p}: every atom lands on one output."""
    exact = testing.scheffe_channel
    monkeypatch.setattr(testing, "scheffe_channel", lambda p, q: exact(p, p))


ROBUST_FAULTS = {
    "lfd_feasibility": lfd_moves_one_percent_less,
    "lfd_clip_structure": clip_high_off_by_1e9,
    "blinding_identity": contamination_keeps_the_spike,
    "phase_hellinger_band": phase_instance_drops_its_spike,
    "phase_scheffe_band": scheffe_compares_p_with_itself,
}


def reduction_compares_a_hypothesis_with_itself(monkeypatch):
    """Pair row (i, j) indicates {p_i > p_i} (a jj -> ii typo): every input
    lands on the slack output, so no pair keeps any distance."""

    def faulty(family):
        rows = np.zeros((family.m * (family.m - 1) // 2, family.k))
        return Channel(np.vstack([rows, np.ones(family.k)]))

    monkeypatch.setattr(mary, "pairwise_indicator_reduction", faulty)


def hadamard_rows_carry_half_of_eps(monkeypatch):
    """The Hadamard rows are perturbed by eps/2 while the family records eps:
    the inner products read eps^2/4 on the diagonal, and TV to uniform eps/4."""
    exact = mary.hadamard_instance

    def faulty(m, eps):
        fam = exact(m, eps / 2.0)
        return mary.HypothesisFamily(fam.dists, base=fam.base, hadamard_eps=eps)

    monkeypatch.setattr(mary, "hadamard_instance", faulty)


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
    "hadamard_orthogonality": hadamard_rows_carry_half_of_eps,
    "hadamard_min_tv": total_variation_drops_the_absolute_value,
    "jl_success_rate": jl_floor_drops_the_acceptance_factor,
    "chi_square_budget": hadamard_family_records_one_percent_less_eps,
    "binary_squeeze_sandwich": squeeze_bound_shrinks_by_a_tenth,
    "tournament_nonadaptive_m4": sampler_draws_from_the_next_hypothesis,
    "tournament_adaptive_m8": game_llr_swaps_the_pair,
}


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


TIGHTNESS_FAULTS = {
    "identities": instance_values_one_power_of_two_low,
    "threshold_sum_exact": objective_cells_exclude_their_level,
    "hell_sandwich": hellinger_instance_perturbs_by_y_over_2,
    "tight_ratio": oracle_cuts_one_class_low,
    "tight_ratio_monotone": hellinger_instance_perturbs_by_y_over_2,
}

FAULT_TABLES = {
    "facts": FACTS_FAULTS,
    "reverse-markov": REVERSE_MARKOV_FAULTS,
    "quantizer": QUANTIZER_FAULTS,
    "robust": ROBUST_FAULTS,
    "mary": MARY_FAULTS,
    "tightness": TIGHTNESS_FAULTS,
}


def row_name(check):
    """A check run once per rho, eps or divergence is one row: its suffix is cut."""
    check = re.sub(r"_(rho|eps)_[^_]*$", "", check)
    return re.sub(r"^(generator_constants|general_ceiling)_.+", r"\1", check)


def suite_checks(suite):
    """The suite's results at seed 0 and its table's sizes, by row name."""
    checks = {}
    for r in verify.SUITES[suite](seed=0, **SIZES[suite]):
        checks.setdefault(row_name(r.name), []).append(r)
    return checks


def test_failed_generator_checks_hold_false_itself():
    """The generator checks compare numpy floats; their results still hold
    the bool False, not a numpy bool, when the fault flips them."""
    with pytest.MonkeyPatch.context() as mp:
        generator_read_at_one_plus_x(mp)
        runs = suite_checks("facts")["generator_constants"]
    assert len(runs) == 7 and all(r.passed is False for r in runs)


def test_every_suite_has_a_fault_table():
    assert sorted(FAULT_TABLES) == sorted(verify.SUITES) == sorted(SIZES)


@pytest.mark.parametrize("suite", list(FAULT_TABLES))
def test_every_check_has_a_row_and_passes_without_its_fault(suite):
    checks = suite_checks(suite)
    assert list(checks) == list(FAULT_TABLES[suite])
    assert all(r.passed for runs in checks.values() for r in runs)


@pytest.mark.parametrize("suite, check", [(suite, check) for suite, table in FAULT_TABLES.items()
                                           for check in table])
def test_fault_fails_its_check(monkeypatch, suite, check):
    FAULT_TABLES[suite][check](monkeypatch)
    runs = suite_checks(suite)[check]
    assert runs and not any(r.passed for r in runs)
