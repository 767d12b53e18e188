import math
import warnings

import numpy as np
import pytest

from commtest import (
    DegenerateInputError,
    Distribution,
    ValidationError,
    apply_channel,
    brute_force_threshold_channel,
    builtin_fdiv,
    design_fdiv_channel,
    design_hellinger_channel,
    f_divergence,
    fdiv_ratio,
    hell_tight_instance,
    hellinger_sq,
    likelihood_ratios,
    quantizer,
    sym_chi_spec,
    threshold_channel,
)


def ratio_cuts(p, q):
    return quantizer._ratio_cuts(likelihood_ratios(p, q), (p.probs > 0) | (q.probs > 0))


def min_ratio(p, q):
    return quantizer._min_ratio(likelihood_ratios(p, q), likelihood_ratios(q, p),
                                (p.probs > 0) | (q.probs > 0))


def random_pair(rng, k, zero_prob=0.0):
    def draw():
        a = rng.dirichlet(np.ones(k))
        if zero_prob and rng.random() < zero_prob:
            a[rng.integers(0, k)] = 0.0
            a /= a.sum()
        return Distribution(a)

    return draw(), draw()


class TestFdivRatio:
    def test_lossless_channel_gives_one(self):
        p = Distribution([0.7, 0.3])
        q = Distribution([0.3, 0.7])
        spec = builtin_fdiv("hellinger")
        res = design_hellinger_channel(p, q, 2)
        assert fdiv_ratio(spec, p, q, res.channel) == pytest.approx(1.0)

    def test_degenerate_raises(self):
        p = Distribution([0.5, 0.5])
        res_channel = design_hellinger_channel(
            Distribution([0.7, 0.3]), Distribution([0.3, 0.7]), 2
        ).channel
        with pytest.raises(DegenerateInputError):
            fdiv_ratio(builtin_fdiv("hellinger"), p, p, res_channel)


class TestDesigner:
    def test_ratio_within_bound_random(self):
        rng = np.random.default_rng(11)
        spec = builtin_fdiv("hellinger")
        done = 0
        while done < 100:
            p, q = random_pair(rng, int(rng.integers(2, 16)), zero_prob=0.3)
            if hellinger_sq(p, q) < 1e-12:
                continue
            d = int(rng.choice([2, 3, 4, 8]))
            res = design_hellinger_channel(p, q, d)
            assert 1.0 - 1e-10 <= res.ratio_achieved <= res.bound
            assert res.channel.out_size == d
            assert res.gamma.out_size == d
            done += 1

    def test_separating_channel_is_lossless(self):
        # three distinct ratio classes fit into D = 3 outputs losslessly
        p = Distribution([0.6, 0.2, 0.2])
        q = Distribution([0.2, 0.2, 0.6])
        res = design_hellinger_channel(p, q, 3)
        assert res.ratio_achieved == pytest.approx(1.0)
        assert res.case_taken == "small-ratio"

    def test_bound_formula_hellinger(self):
        p = Distribution([0.6, 0.2, 0.2])
        q = Distribution([0.2, 0.2, 0.6])
        res = design_hellinger_channel(p, q, 2)
        kprime = max(1.0, math.log2(4.0 / hellinger_sq(p, q)))
        r = min(3.0, kprime)
        assert res.r_value == pytest.approx(r)
        assert res.bound == pytest.approx(1800.0 * max(1.0, r / 2.0))

    def test_identical_inputs_raise(self):
        p = Distribution([0.5, 0.5])
        with pytest.raises(DegenerateInputError):
            design_hellinger_channel(p, p, 2)

    def test_out_size_validation(self):
        p = Distribution([0.7, 0.3])
        q = Distribution([0.3, 0.7])
        with pytest.raises(ValidationError):
            design_hellinger_channel(p, q, 1)

    def test_general_spec_bound(self):
        rng = np.random.default_rng(12)
        for name in ("sym_kl", "triangular", "sym_chi_1.5"):
            spec = builtin_fdiv(name)
            done = 0
            while done < 30:
                a = rng.dirichlet(np.ones(6)) + 0.01
                b = rng.dirichlet(np.ones(6)) + 0.01
                p, q = Distribution(a / a.sum()), Distribution(b / b.sum())
                try:
                    res = design_fdiv_channel(spec, p, q, 3)
                except DegenerateInputError:
                    continue
                assert res.ratio_achieved <= res.bound
                done += 1


def hoisting_pair(rng):
    """Random pair with zero masses, ratio ties (quarter-scaled copies of
    atoms) and subnormal masses: on both sides of one atom, on p alone, and
    on q against a zero in p."""
    k = int(rng.integers(2, 20))
    a, b = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    for v in (a, b):
        v[rng.random(k) < 0.15] = 0.0
    copies = rng.integers(0, k, int(rng.integers(0, 3)))
    a = np.concatenate([a, a[copies] / 4.0, [3e-310, 2e-310, 0.0]])
    b = np.concatenate([b, b[copies] / 4.0, [5e-310, 0.5, 1e-310]])
    return Distribution(a / a.sum()), Distribution(b / b.sum())


class TestDesignerHoisting:
    def test_result_matches_public_helpers(self):
        """The designer computes the likelihood ratios and I_f(p, q) once per
        call; its channel and ratio must equal the public helpers' floats."""
        rng = np.random.default_rng(707)
        specs = ("hellinger", "sym_kl", "triangular", "tv", "sym_chi_1.5", "sym_chi_1")
        checked = 0
        for i in range(600):
            p, q = hoisting_pair(rng)
            spec = builtin_fdiv(specs[i % len(specs)])
            try:
                res = design_fdiv_channel(spec, p, q, 2 + (i // len(specs)) % 7)
            except DegenerateInputError:
                continue
            assert res.ratio_achieved == fdiv_ratio(spec, p, q, res.channel)
            assert np.array_equal(res.channel.matrix,
                                  threshold_channel(p, q, res.gamma).matrix)
            checked += 1
        assert checked >= 500


class TestOracle:
    def test_dominates_designed(self):
        rng = np.random.default_rng(13)
        spec = builtin_fdiv("hellinger")
        done = 0
        while done < 50:
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            if hellinger_sq(p, q) < 1e-12:
                continue
            d = int(rng.choice([2, 3]))
            designed = design_hellinger_channel(p, q, d)
            oracle = brute_force_threshold_channel(spec, p, q, d)
            assert oracle.ratio_achieved <= designed.ratio_achieved + 1e-9
            assert oracle.case_taken == "oracle"
            done += 1

    def test_large_instance_is_exact(self):
        # C(59, 9) threshold sets: far beyond subset enumeration
        rng = np.random.default_rng(14)
        p, q = random_pair(rng, 60)
        oracle = brute_force_threshold_channel(builtin_fdiv("hellinger"), p, q, 10)
        designed = design_hellinger_channel(p, q, 10)
        assert 1.0 - 1e-12 <= oracle.ratio_achieved <= designed.ratio_achieved
        assert oracle.gamma.out_size == 10

    def test_single_ratio_class_raises(self):
        p = Distribution([0.5, 0.5])
        with pytest.raises(DegenerateInputError):
            brute_force_threshold_channel(builtin_fdiv("hellinger"), p, p, 2)


class TestExtremeRatios:
    def test_infinite_class_cut_after_huge_finite_ratio(self):
        # largest finite ratio 1e308: 2 * 1e308 + 1 overflows to inf
        p = Distribution([0.4, 0.3, 0.3])
        q = Distribution([4e-309, 1.0, 0.0])
        top = likelihood_ratios(p, q)[0]
        cuts = ratio_cuts(p, q)
        assert cuts == [top, math.nextafter(top, math.inf)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [design_hellinger_channel(p, q, 3),
                       brute_force_threshold_channel(builtin_fdiv("hellinger"), p, q, 3)]
        for res in results:
            # every ratio class in its own cell: lossless
            assert sorted(res.channel.matrix.argmax(axis=0)) == [0, 1, 2]
            assert res.ratio_achieved == pytest.approx(1.0)

    def test_infinite_class_shares_top_cell_at_float_max(self):
        # largest finite ratio is the float maximum: no finite cut lies past it
        a = (2.0 - 2.0 ** -52) * 2.0 ** -51
        p = Distribution([a, 0.5, 0.5 - a])
        q = Distribution([2.0 ** -1074, 1.0, 0.0])
        assert likelihood_ratios(p, q)[0] == np.finfo(float).max
        assert ratio_cuts(p, q) == [np.finfo(float).max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            designed = design_hellinger_channel(p, q, 3)
            oracle = brute_force_threshold_channel(builtin_fdiv("hellinger"), p, q, 3)
        assert 1.0 <= oracle.ratio_achieved <= designed.ratio_achieved
        assert math.isfinite(designed.ratio_achieved)

    def test_infinite_class_cut_unchanged_for_moderate_ratios(self):
        p = Distribution([0.4, 0.3, 0.3])
        q = Distribution([0.5, 0.5, 0.0])
        assert ratio_cuts(p, q) == [0.8, 2.0 * 0.8 + 1.0]

    def test_bound_reads_inf_where_f_nu_overflows(self):
        # nu = 5e-324: sym_chi_2's x ** -1 passes the float range
        p, q = Distribution([0.5, 0.5]), Distribution([5e-324, 1.0 - 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = design_fdiv_channel(sym_chi_spec(2.0), p, q, 2)
        assert res.bound == math.inf
        assert res.ratio_achieved == pytest.approx(1.0)

    def test_min_ratio_on_subnormal_masses_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = Distribution([0.5, 0.5, 0.0])
            q = Distribution([1e-309, 0.5, 0.5 - 1e-309])
            assert min_ratio(p, q) == 0.0
            p, q = Distribution([0.5, 0.5]), Distribution([1e-309, 1.0 - 1e-309])
            assert min_ratio(p, q) == 1e-309 / 0.5
            assert min_ratio(q, p) == 1e-309 / 0.5

    def test_min_ratio_equals_smaller_quotient(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p, q = random_pair(rng, 6)
            expected = min(1.0, *(min(a / b, b / a) for a, b in zip(p.probs, q.probs)))
            assert min_ratio(p, q) == expected


class TestHellTightInstance:
    def test_sandwich_and_ratio_range(self):
        for rho in (1e-3, 1e-4):
            p, q = hell_tight_instance(rho)
            h2 = hellinger_sq(p, q)
            from commtest import tightness_instance

            mean = tightness_instance(rho).mean()
            # per-atom bounds give h2 in [E/8, E/2]
            assert mean / 8.0 - 1e-15 <= h2 <= mean / 2.0 + 1e-15
            ratios = p.probs / q.probs
            assert np.all(ratios >= 0.5 - 1e-12)
            assert np.all(ratios <= 1.5 + 1e-12)

    def test_result_json(self):
        p, q = hell_tight_instance(1e-3)
        res = design_hellinger_channel(p, q, 2)
        obj = res.to_json()
        assert set(obj) == {"gamma", "channel", "ratio_achieved", "bound", "case",
                            "r_value"}
        assert obj["ratio_achieved"] == res.ratio_achieved
