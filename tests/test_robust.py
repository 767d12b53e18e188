import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from commtest import (
    Channel,
    ContaminationSetup,
    DegenerateInputError,
    Distribution,
    InfeasibleContaminationError,
    ValidationError,
    apply_channel,
    design_robust_channel,
    example_nonrobust_instance,
    example_phase_transition_instance,
    hellinger_affinity,
    hellinger_sq,
    huber_lfd,
    likelihood_ratios,
    moderate_robustness_radius,
    robust_decide,
    scheffe_channel,
    total_variation,
)
from commtest import robust, verify


class TestContaminationSetup:
    def test_infeasible_radius(self):
        p = Distribution([0.75, 0.25])
        q = Distribution([0.25, 0.75])
        # d_TV = 0.5, so eps >= 0.25 makes the balls meet
        with pytest.raises(InfeasibleContaminationError):
            ContaminationSetup(p, q, 0.25)
        ContaminationSetup(p, q, 0.24)

    def test_negative_radius(self):
        p = Distribution([0.8, 0.2])
        q = Distribution([0.2, 0.8])
        with pytest.raises(ValidationError):
            ContaminationSetup(p, q, -0.1)


class TestHuberLfd:
    def test_bernoulli_textbook_example(self):
        setup = ContaminationSetup(
            Distribution([0.8, 0.2]), Distribution([0.2, 0.8]), 0.1
        )
        lfd = huber_lfd(setup)
        assert lfd.p_lfd.probs == pytest.approx([0.7, 0.3], abs=1e-9)
        assert lfd.q_lfd.probs == pytest.approx([0.3, 0.7], abs=1e-9)

    def test_zero_radius_passthrough(self):
        p = Distribution([0.8, 0.2])
        q = Distribution([0.2, 0.8])
        lfd = huber_lfd(ContaminationSetup(p, q, 0.0))
        assert lfd.p_lfd == p and lfd.q_lfd == q
        assert lfd.clip_low == pytest.approx(0.25)
        assert lfd.clip_high == pytest.approx(4.0)

    def test_zero_radius_spans_the_joint_support(self):
        # p/q is inf on the first atom and 0 on the last; a 0/0 atom is left out.
        cases = [([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], (0.0, math.inf)),
                 ([1.0, 0.0], [0.0, 1.0], (0.0, math.inf)),
                 ([0.5, 0.5, 0.0], [0.25, 0.75, 0.0], (0.5 / 0.75, 2.0))]
        for p, q, clips in cases:
            lfd = huber_lfd(ContaminationSetup(Distribution(p), Distribution(q), 0.0))
            assert (lfd.clip_low, lfd.clip_high) == clips

    def test_feasibility_and_clip_structure(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 50:
            k = int(rng.integers(2, 8))
            p = Distribution(rng.dirichlet(np.ones(k)))
            q = Distribution(rng.dirichlet(np.ones(k)))
            eps = float(rng.uniform(0.0, 0.45)) * total_variation(p, q)
            try:
                setup = ContaminationSetup(p, q, eps)
            except InfeasibleContaminationError:
                continue
            lfd = huber_lfd(setup)
            assert total_variation(p, lfd.p_lfd) <= eps + 1e-12
            assert total_variation(q, lfd.q_lfd) <= eps + 1e-12
            clamped = np.clip(likelihood_ratios(p, q), lfd.clip_low, lfd.clip_high)
            got = likelihood_ratios(lfd.p_lfd, lfd.q_lfd)
            both = (lfd.p_lfd.probs > 0) & (lfd.q_lfd.probs > 0)
            assert got[both] == pytest.approx(clamped[both], rel=1e-12)
            # LFDs are the hardest pair: affinity can only increase
            assert hellinger_affinity(lfd.p_lfd, lfd.q_lfd) >= hellinger_affinity(
                p, q
            ) - 1e-12
            done += 1

    def test_mis_clipped_lfd_fails_clip_structure(self, monkeypatch):
        exact = robust.huber_lfd

        def off_by_1e9(setup):
            lfd = exact(setup)
            return dataclasses.replace(lfd, clip_high=lfd.clip_high * (1.0 + 1e-9))

        monkeypatch.setattr(robust, "huber_lfd", off_by_1e9)
        checks = {c.name: c for c in verify.robust_suite(seed=0, setups=20)}
        assert checks["lfd_feasibility"].passed
        assert not checks["lfd_clip_structure"].passed
        assert checks["lfd_clip_structure"].value == pytest.approx(1e-9, rel=1e-3)

    def test_json(self):
        setup = ContaminationSetup(
            Distribution([0.8, 0.2]), Distribution([0.2, 0.8]), 0.05
        )
        obj = huber_lfd(setup).to_json()
        assert set(obj) == {"p_lfd", "q_lfd", "clip_low", "clip_high"}


def _balance_residuals(setup, lfd):
    """Exact rational values of both balance equations at the float constants:
    sum (p - c q)_+ - eps (1 + c) at clip_high, sum (c q - p)_+ - eps (1 + c)
    at clip_low."""
    p = [Fraction(x) for x in setup.p.probs]
    q = [Fraction(x) for x in setup.q.probs]
    eps = Fraction(setup.epsilon)
    hi, lo = Fraction(lfd.clip_high), Fraction(lfd.clip_low)
    g = sum(max(a - hi * b, 0) for a, b in zip(p, q)) - eps * (1 + hi)
    h = sum(max(lo * b - a, 0) for a, b in zip(p, q)) - eps * (1 + lo)
    return abs(float(g)), abs(float(h))


def _exact_root_instances():
    """Seeded setups: random pairs with zero masses (so infinite and 0/0
    ratios), radii whose clip constant equals an atom's ratio, radii near
    d_TV / 2, and a subnormal mass."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        k = int(rng.integers(2, 40))
        w = rng.dirichlet(np.full(k, rng.choice([0.2, 1.0, 5.0])), size=2)
        w[rng.random((2, k)) < 0.2] = 0.0
        if w[0].sum() == 0 or w[1].sum() == 0:
            continue
        p, q = Distribution(w[0] / w[0].sum()), Distribution(w[1] / w[1].sum())
        tv = total_variation(p, q)
        for frac in (float(rng.uniform(0.0, 1.0)), 1.0 - 1e-9, 1.0 - 1e-14):
            if 0.0 < frac * tv / 2.0 < tv / 2.0:
                yield ContaminationSetup(p, q, frac * tv / 2.0)
        # Put the high clip constant on an atom's ratio r_j > 1: with S the
        # atoms of larger ratio, (A_S - eps) / (B_S + eps) = r_j.
        a, b = (p.probs, q.probs) if rng.random() < 0.5 else (q.probs, p.probs)
        r = likelihood_ratios(Distribution(a), Distribution(b))
        order = np.argsort(-r, kind="stable")
        above = [j for j in range(1, k) if 1.0 < r[order[j]] < r[order[j - 1]]]
        if above:
            j = above[int(rng.integers(len(above)))]
            top = order[:j]
            c = r[order[j]]
            eps = (a[top].sum() - c * b[top].sum()) / (1.0 + c)
            if 0.0 < eps < tv / 2.0:
                yield ContaminationSetup(p, q, eps)
    p = Distribution([0.5, 0.5, 0.0])
    q = Distribution([1e-309, 0.5, 0.5 - 1e-309])
    for eps in (1e-300, 1e-12, 0.1, 0.2499):
        yield ContaminationSetup(p, q, eps)
        yield ContaminationSetup(q, p, eps)


class TestExactRoot:
    def test_balance_residuals_are_rounding_level(self):
        worst = 0.0
        count = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for setup in _exact_root_instances():
                lfd = huber_lfd(setup)
                assert 0.0 < lfd.clip_low <= 1.0 <= lfd.clip_high
                worst = max(worst, *_balance_residuals(setup, lfd))
                count += 1
        assert count >= 500
        assert worst <= 1e-15

    def test_rounding_cannot_pull_a_ratio_one_atom_into_the_clip(self):
        # Adding the 7e-17 atom of ratio 1 rounds the prefix quotient up, so
        # a plain argmax would clip it to 1.0246 as well.
        p = Distribution([0.5027019301004483, 7.345228283063088e-17, 0.49729806989955166])
        q = Distribution([0.4860022681756847, 7.345228283063088e-17, 0.5139977318243152])
        lfd = huber_lfd(ContaminationSetup(p, q, 0.002331420496532609))
        clamped = np.clip(likelihood_ratios(p, q), lfd.clip_low, lfd.clip_high)
        assert likelihood_ratios(lfd.p_lfd, lfd.q_lfd) == pytest.approx(clamped, rel=1e-12)
        assert lfd.clip_high > 1.02

    def test_large_clip_constant_is_exact(self):
        # infinite-ratio mass 0.5 and eps 1e-20: clip_high = (0.5 - eps) / eps
        setup = ContaminationSetup(
            Distribution([0.5, 0.5, 0.0]), Distribution([0.0, 0.5, 0.5]), 1e-20
        )
        lfd = huber_lfd(setup)
        assert lfd.clip_high == pytest.approx(0.5e20, rel=1e-15)
        assert lfd.clip_low == pytest.approx(2e-20, rel=1e-15)
        assert max(_balance_residuals(setup, lfd)) <= 1e-15
        # with eps = 1e-320 the constant, about 5e319, is past the float range
        with pytest.raises(DegenerateInputError):
            huber_lfd(ContaminationSetup(setup.p, setup.q, 1e-320))


class TestRobustDesign:
    def test_design_and_decide(self):
        setup = ContaminationSetup(
            Distribution([0.8, 0.2]), Distribution([0.2, 0.8]), 0.1
        )
        lfd, design = design_robust_channel(setup, 2)
        assert design.ratio_achieved <= design.bound
        # a run of clearly P-ish messages should decide P
        tp = apply_channel(design.channel, lfd.p_lfd).probs
        heavy = int(np.argmax(tp))
        assert robust_decide(design.channel, lfd, [heavy] * 10) == "P"

    def test_regime_change_selects_different_channels(self):
        # contamination radius eps^(1+gamma); crossing gamma over delta
        # changes the shape of the LFDs and with it the preserved Hellinger
        eps, alpha, beta, delta = 1e-3, 0.2, 0.45, 0.5
        p, q = example_phase_transition_instance(eps, alpha, beta, delta)
        h2 = {}
        for gamma in (0.9 * delta + 0.1 * beta, 2 * delta):
            lfd, design = design_robust_channel(
                ContaminationSetup(p, q, eps ** (1.0 + gamma)), 2
            )
            h2[gamma] = hellinger_sq(
                apply_channel(design.channel, lfd.p_lfd),
                apply_channel(design.channel, lfd.q_lfd),
            )
        ratio = max(h2.values()) / min(h2.values())
        assert ratio >= 2.0


class TestModerateRadius:
    def test_positive_and_scales_with_slack(self):
        p = Distribution([0.8, 0.2])
        q = Distribution([0.2, 0.8])
        chan = Channel.identity(2)
        r10 = moderate_robustness_radius(p, q, chan, slack=10.0)
        r20 = moderate_robustness_radius(p, q, chan, slack=20.0)
        assert r10 > 0
        assert r10 == pytest.approx(2 * r20)
        assert r10 == pytest.approx(0.001 * hellinger_sq(p, q))

    def test_collapsing_channel_raises(self):
        p = Distribution([0.8, 0.2])
        q = Distribution([0.2, 0.8])
        collapse = Channel(np.full((2, 2), 0.5))
        with pytest.raises(DegenerateInputError):
            moderate_robustness_radius(p, q, collapse)

    def test_bad_slack(self):
        p = Distribution([0.8, 0.2])
        q = Distribution([0.2, 0.8])
        with pytest.raises(ValidationError):
            moderate_robustness_radius(p, q, Channel.identity(2), slack=0.0)

    def test_lfd_design_survives_moderate_contamination(self):
        # below the moderate radius, the channel designed for the clean pair
        # still separates the contaminated pair
        p = Distribution([0.8, 0.2])
        q = Distribution([0.2, 0.8])
        from commtest import design_hellinger_channel

        chan = design_hellinger_channel(p, q, 2).channel
        radius = moderate_robustness_radius(p, q, chan)
        lfd = huber_lfd(ContaminationSetup(p, q, radius))
        h2_cont = hellinger_sq(
            apply_channel(chan, lfd.p_lfd), apply_channel(chan, lfd.q_lfd)
        )
        h2_clean = hellinger_sq(apply_channel(chan, p), apply_channel(chan, q))
        assert h2_cont >= 0.5 * h2_clean


class TestExamples:
    def test_nonrobust_blinding_identity(self):
        p, q, p_tilde, chan = example_nonrobust_instance(0.01, 0.5)
        # the clean-optimal channel is blinded: T p~ == T q
        assert apply_channel(chan, p_tilde).probs == pytest.approx(
            apply_channel(chan, q).probs, abs=1e-12
        )
        # yet it separates the clean pair
        assert hellinger_sq(apply_channel(chan, p), apply_channel(chan, q)) > 0
        assert total_variation(p, p_tilde) <= 0.01 ** 1.5 + 1e-12

    def test_nonrobust_validation(self):
        with pytest.raises(ValidationError):
            example_nonrobust_instance(0.2, 0.5)  # eps too large
        with pytest.raises(ValidationError):
            example_nonrobust_instance(0.01, 1.5)  # alpha out of range

    def test_phase_transition_validation(self):
        # the strict constraint delta < 2*beta - alpha must hold
        with pytest.raises(ValidationError):
            example_phase_transition_instance(0.01, 0.2, 0.4, 0.7)
        with pytest.raises(ValidationError):
            example_phase_transition_instance(0.01, 0.5, 0.4, 0.6)
        with pytest.raises(ValidationError):
            example_phase_transition_instance(0.02, 0.2, 0.5, 0.7)

    def test_phase_transition_bands(self):
        alpha, beta, delta = 0.2, 0.5, 0.7
        for eps in (1e-2, 1e-3):
            p, q = example_phase_transition_instance(eps, alpha, beta, delta)
            band = hellinger_sq(p, q) / eps ** (1.0 + delta)
            assert 0.1 <= band <= 10.0
            sch = scheffe_channel(p, q)
            band_s = (
                hellinger_sq(apply_channel(sch, p), apply_channel(sch, q)) / eps**2
            )
            assert 0.1 <= band_s <= 10.0
