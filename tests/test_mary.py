import math

import numpy as np
import pytest

from commtest import (
    Channel,
    DegenerateInputError,
    DimensionError,
    Distribution,
    HypothesisFamily,
    StochasticFailureError,
    ValidationError,
    apply_channel,
    chi_square_budget,
    counts_sampler,
    game_sample_size,
    hadamard_instance,
    identical_channel_design,
    jl_sketch_channel,
    min_pairwise_tv_after,
    pairwise_indicator_reduction,
    total_variation,
    tournament_adaptive,
    tournament_nonadaptive,
    verify_identical_d2_bound,
)
from commtest import mary, quantizer


def random_family(rng, m, k):
    return HypothesisFamily([Distribution(rng.dirichlet(np.ones(k))) for _ in range(m)])


class TestHypothesisFamily:
    def test_validation(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValidationError):
            HypothesisFamily([d])
        with pytest.raises(DegenerateInputError):
            HypothesisFamily([d, d])
        with pytest.raises(ValidationError):
            HypothesisFamily([d, Distribution([0.5, 0.3, 0.2])])

    def test_cached_statistics(self):
        fam = HypothesisFamily(
            [Distribution([0.9, 0.1]), Distribution([0.1, 0.9]),
             Distribution([0.5, 0.5])]
        )
        assert fam.m == 3 and fam.k == 2
        assert fam.min_pairwise_tv == pytest.approx(0.4)
        assert fam.min_pairwise_hellinger <= fam.max_pairwise_hellinger

    def test_base_must_share_the_alphabet(self):
        dists = [Distribution([0.9, 0.1]), Distribution([0.1, 0.9])]
        with pytest.raises(DimensionError):
            HypothesisFamily(dists, base=Distribution([0.2, 0.3, 0.5]))
        with pytest.raises(DimensionError):
            HypothesisFamily.from_json({"dists": [[0.9, 0.1], [0.1, 0.9]],
                                        "base": [0.2, 0.3, 0.5]})
        assert HypothesisFamily(dists, base=Distribution([0.5, 0.5])).k == 2

    def test_json_round_trip(self):
        fam = hadamard_instance(4, 0.4)
        fam2 = HypothesisFamily.from_json(fam.to_json())
        assert fam2.m == fam.m
        assert fam2.hadamard_eps == 0.4
        assert fam2.base == fam.base


class TestHadamardInstance:
    def test_structure(self):
        fam = hadamard_instance(4, 0.4)
        assert fam.k == 8  # smallest power of two >= m + 1
        for i in range(fam.m):
            assert total_variation(fam.base, fam.dists[i]) == pytest.approx(0.2)
        # centered chi-square inner products sum_x (P_a - u)(P_b - u) / u
        u = fam.base.probs
        dev = np.array([d.probs for d in fam.dists]) - u
        gram = (dev[:, None] * dev / u).sum(axis=-1)
        assert gram == pytest.approx(0.4**2 * np.eye(fam.m), abs=1e-12)

    def test_rows_follow_sylvester_sign_rule(self):
        # Sylvester's H_k has entry (-1)^popcount(a & x); row a + 1 gives P_a.
        for m, eps in ((2, 0.3), (3, 0.4), (4, 0.4), (8, 0.5), (31, 0.2), (100, 0.1)):
            fam = hadamard_instance(m, eps)
            k = fam.k
            assert k >= m + 1 and k // 2 < m + 1 and k & (k - 1) == 0
            for a in range(m):
                signs = [(-1.0) ** bin((a + 1) & x).count("1") for x in range(k)]
                want = [(1.0 + eps * s) / k for s in signs]
                assert fam.dists[a].probs == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            hadamard_instance(1, 0.4)
        with pytest.raises(ValidationError):
            hadamard_instance(4, 1.0)



class TestReduction:
    def test_pairwise_guarantee(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            fam = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(2, 20)))
            chan = pairwise_indicator_reduction(fam)
            assert chan.out_size == fam.m * (fam.m - 1) // 2 + 1
            for i in range(fam.m):
                for j in range(i + 1, fam.m):
                    lhs = total_variation(
                        apply_channel(chan, fam.dists[i]),
                        apply_channel(chan, fam.dists[j]),
                    )
                    rhs = total_variation(fam.dists[i], fam.dists[j]) / fam.m**2
                    assert lhs >= rhs - 1e-12


class TestJlSketch:
    def test_membership_on_success(self):
        fam = hadamard_instance(4, 0.4)
        chan = jl_sketch_channel(fam, 3, seed=0)
        h = chan.matrix[:-1]
        assert np.all(h >= 0.0)
        assert np.all(h.sum(axis=0) <= 1.0 + 1e-12)
        assert chan.out_size == 3

    def test_failure_carries_best_attempt(self):
        fam = hadamard_instance(4, 0.4)
        with pytest.raises(StochasticFailureError) as exc_info:
            jl_sketch_channel(fam, 3, seed=0, max_retries=5, accept=1e6)
        err = exc_info.value
        assert err.best is not None
        assert err.best_score == pytest.approx(
            min_pairwise_tv_after(err.best, fam)
        )

    def test_out_size_validation(self):
        fam = hadamard_instance(4, 0.4)
        for call in (jl_sketch_channel, mary.jl_distance_floor, identical_channel_design):
            with pytest.raises(ValidationError, match="out_size must be at least 2"):
                call(fam, 1)

    @pytest.mark.parametrize("name, value, message", [
        ("max_retries", 0, "must be at least 1, got 0"),
        ("max_retries", -5, "must be at least 1, got -5"),
        ("max_retries", 2.5, "must be an integer, got 2.5"),
        ("max_retries", True, "must be an integer, got True"),
        ("accept", float("nan"), "must be positive and finite, got nan"),
        ("accept", -1.0, "must be positive and finite, got -1.0"),
        ("accept", 0.0, "must be positive and finite, got 0.0"),
        ("accept", float("inf"), "must be positive and finite, got inf"),
    ], ids=["retries-0", "retries-neg", "retries-float", "retries-bool", "accept-nan",
            "accept-neg", "accept-0", "accept-inf"])
    def test_rejects_bad_retries_and_accept(self, name, value, message):
        # 0 and -5 retries raised StochasticFailureError, 2.5 a TypeError; a NaN
        # accept drew every sketch against a NaN floor, and -1 accepted any draw
        fam = hadamard_instance(4, 0.4)
        with pytest.raises(ValidationError, match=f"^{name} {message}$"):
            jl_sketch_channel(fam, 3, **{name: value})

    def test_deterministic_given_seed(self):
        fam = hadamard_instance(4, 0.4)
        c1 = jl_sketch_channel(fam, 3, seed=5)
        c2 = jl_sketch_channel(fam, 3, seed=5)
        assert np.array_equal(c1.matrix, c2.matrix)

    def test_a_draw_that_is_not_a_sub_channel_is_skipped(self, monkeypatch):
        fam = hadamard_instance(4, 0.4)
        plain = jl_sketch_channel(fam, 3, seed=0)  # the first draw meets its floor
        make_rng = np.random.default_rng

        def sketch_with_first_block(first):
            """The sketch when the generator's first Gaussian block is `first(rng, block)`."""
            calls = []

            class Rng:
                def __init__(self, seed):
                    self.rng = make_rng(seed)

                def standard_normal(self, shape):
                    block = self.rng.standard_normal(shape)
                    calls.append(shape)
                    return first(self.rng, block) if len(calls) == 1 else block

            monkeypatch.setattr(np.random, "default_rng", Rng)
            return jl_sketch_channel(fam, 3, seed=0), len(calls)

        poisoned, draws = sketch_with_first_block(lambda rng, block: np.full_like(block, -1e3))
        skipped, _ = sketch_with_first_block(lambda rng, block: rng.standard_normal(block.shape))
        assert draws >= 2
        assert np.array_equal(poisoned.matrix, skipped.matrix)
        assert not np.array_equal(poisoned.matrix, plain.matrix)


class TestIdenticalDesign:
    def test_identity_wins_when_alphabet_fits(self):
        fam = HypothesisFamily(
            [Distribution([0.9, 0.1]), Distribution([0.1, 0.9])]
        )
        chan, score = identical_channel_design(fam, 3, seed=0)
        # the identity embedding preserves everything, so nothing beats it
        assert score == pytest.approx(fam.min_pairwise_tv)

    def test_composed_route_beats_direct_for_large_alphabets(self):
        # k >> M^2: reducing to pairwise indicators first preserves far more
        wins = 0
        for s in range(10):
            rng = np.random.default_rng(2000 + s)
            fam = random_family(rng, 3, 200)

            def sketch_score(f, pre, seed):
                try:
                    ch = jl_sketch_channel(f, 4, seed=seed, max_retries=20)
                except StochasticFailureError as err:
                    ch = err.best
                full = ch if pre is None else ch.compose(pre)
                return min_pairwise_tv_after(full, fam)

            direct = sketch_score(fam, None, s)
            red = pairwise_indicator_reduction(fam)
            reduced = HypothesisFamily([apply_channel(red, d) for d in fam.dists])
            wins += sketch_score(reduced, red, s + 1) > direct
        assert wins >= 5

    @pytest.mark.parametrize("make_family, out_size", [
        (lambda: hadamard_instance(5, 0.4), 3),
        (lambda: random_family(np.random.default_rng(2004), 3, 200), 4),
    ], ids=["hadamard", "k=200"])
    def test_falls_back_to_the_best_draws_when_no_draw_meets_its_floor(
            self, monkeypatch, make_family, out_size):
        fam = make_family()  # k > D: no identity candidate
        monkeypatch.setattr(mary, "jl_distance_floor", lambda *args, **kwargs: 1e9)
        with pytest.raises(StochasticFailureError) as direct:
            jl_sketch_channel(fam, out_size, seed=4)
        red = pairwise_indicator_reduction(fam)
        reduced = HypothesisFamily([apply_channel(red, d) for d in fam.dists])
        with pytest.raises(StochasticFailureError) as composed:
            jl_sketch_channel(reduced, out_size, seed=5)
        candidates = [direct.value.best, composed.value.best.compose(red)]
        best = max(candidates, key=lambda ch: min_pairwise_tv_after(ch, fam))
        chan, score = identical_channel_design(fam, out_size, seed=4)
        assert np.array_equal(chan.matrix, best.matrix)
        assert score == min_pairwise_tv_after(best, fam)


class TestTournaments:
    def test_game_sample_size_formula(self):
        fam = hadamard_instance(4, 0.4)
        rho_sq = fam.min_pairwise_hellinger**2
        r = 1.0 + min(float(fam.k), max(1.0, math.log2(1.0 / rho_sq))) / 2.0
        expected = math.ceil(4.0 * math.log(16 / 0.1) * r / rho_sq)
        assert game_sample_size(fam, 2) == expected

    @pytest.mark.parametrize("out_size", [1, 0, -1])
    def test_game_sample_size_needs_two_outputs(self, out_size):
        # at 0 the formula divided by zero, and at -1 it gave a negative size
        with pytest.raises(ValidationError, match="out_size must be at least 2"):
            game_sample_size(hadamard_instance(4, 0.4), out_size)

    @pytest.mark.parametrize("constant", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("call", [game_sample_size, tournament_nonadaptive,
                                      tournament_adaptive])
    def test_game_constant_must_be_positive_and_finite(self, call, constant):
        fam = hadamard_instance(4, 0.4)
        args = (fam, 2) if call is game_sample_size else (fam, 2, counts_sampler(fam.dists[0]))
        with pytest.raises(ValidationError, match="constant must be positive and finite"):
            call(*args, constant=constant)

    def test_nonadaptive_structure_and_recovery(self):
        fam = hadamard_instance(4, 0.4)
        tr = tournament_nonadaptive(fam, 2, counts_sampler(fam.dists[2]), seed=9)
        m_games = fam.m * (fam.m - 1) // 2
        assert len(tr.games) == m_games
        assert tr.total_samples == m_games * game_sample_size(fam, 2)
        assert tr.winner == 2
        assert not tr.ambiguous

    def test_adaptive_structure_and_recovery(self):
        fam = hadamard_instance(8, 0.4)
        tr = tournament_adaptive(fam, 2, counts_sampler(fam.dists[5]), seed=9)
        assert len(tr.games) == fam.m - 1
        assert tr.total_samples == (fam.m - 1) * game_sample_size(fam, 2)
        assert tr.winner == 5

    def test_deterministic_transcripts(self):
        fam = hadamard_instance(4, 0.3)
        t1 = tournament_nonadaptive(fam, 2, counts_sampler(fam.dists[0]), seed=3)
        t2 = tournament_nonadaptive(fam, 2, counts_sampler(fam.dists[0]), seed=3)
        assert t1.to_json() == t2.to_json()


def tournament_plan():
    """(M, eps, D, adaptive, truth, seed) for 24 tournaments on three
    families; a high truth moves the adaptive champion off index 0."""
    plan = []
    for n, (m, eps) in enumerate(((4, 0.4), (7, 0.35), (8, 0.45))):
        for d in (2, 3):
            for adaptive in (False, True):
                for truth in (m - 1, n):
                    plan.append((m, eps, d, adaptive, truth, 100 * n + 10 * d + truth))
    return plan


def play(fam, d, adaptive, truth, seed):
    run = tournament_adaptive if adaptive else tournament_nonadaptive
    return run(fam, d, counts_sampler(fam.dists[truth]), seed=seed).to_json()


class TestGameTable:
    def test_reused_family_matches_fresh_families(self):
        shared = {}
        champion_games = 0
        for m, eps, d, adaptive, truth, seed in tournament_plan():
            fam = shared.setdefault(m, hadamard_instance(m, eps))
            got = play(fam, d, adaptive, truth, seed)
            assert got == play(hadamard_instance(m, eps), d, adaptive, truth, seed)
            if adaptive:
                champion_games += sum(g["i"] > 0 for g in got["games"])
        assert champion_games > 0

    def test_one_design_per_pair_and_out_size(self, monkeypatch):
        designs = []
        real = quantizer.design_hellinger_channel

        def counting(p, q, out_size):
            designs.append((p.probs.tobytes(), q.probs.tobytes(), out_size))
            return real(p, q, out_size)

        monkeypatch.setattr(quantizer, "design_hellinger_channel", counting)
        families = {}
        for m, eps, d, adaptive, truth, seed in tournament_plan() * 2:
            play(families.setdefault(m, hadamard_instance(m, eps)), d, adaptive, truth, seed)
        assert len(designs) == len(set(designs))
        assert len(designs) == sum(len(fam._games) for fam in families.values())

    def test_reversed_pair_uses_the_same_channel(self):
        fam = hadamard_instance(4, 0.4)
        forward, llr = fam._game(1, 3, 3)
        backward, reversed_llr = fam._game(3, 1, 3)
        assert np.array_equal(forward.matrix, backward.matrix)
        assert np.array_equal(reversed_llr, -llr)

    def test_warm_table_is_invisible(self):
        fam = hadamard_instance(7, 0.35)
        cold = hadamard_instance(7, 0.35)
        before = (hash(fam), repr(fam), fam.to_json())
        play(fam, 3, False, 2, 5)
        play(fam, 2, True, 6, 5)
        assert fam._games
        assert fam == cold and hash(fam) == hash(cold)
        assert (hash(fam), repr(fam), fam.to_json()) == before
        assert "_games" not in repr(fam)


class TestVerifiers:
    def test_binary_squeeze_small_family(self):
        fam = hadamard_instance(4, 0.4)  # k = 8
        rep = verify_identical_d2_bound(fam)
        assert rep.lower == 0.0  # no sampled channels: a constant channel
        assert rep.constant <= 3.0 * math.sqrt(2.0)
        # 2 sin(arcsin(h / 2) / (M - 1)) with h the max pairwise d_h
        h = fam.max_pairwise_hellinger
        assert rep.sup_min_hellinger == pytest.approx(2 * math.sin(math.asin(h / 2) / 3))
        assert rep.constant == pytest.approx(fam.m * rep.sup_min_hellinger / h)

    def test_binary_squeeze_has_no_alphabet_cap(self):
        fam = hadamard_instance(31, 0.4)
        assert fam.k == 32
        rep = verify_identical_d2_bound(fam, channel_samples=50, seed=1)
        assert 0.0 < rep.lower <= rep.sup_min_hellinger
        assert set(rep.to_json()) == {"sup_min_hellinger", "lower",
                                      "max_pairwise_hellinger", "constant"}

    def test_binary_squeeze_two_hypotheses_keep_their_distance(self):
        # M = 2: the bound is the input distance itself, which the
        # identity-like channel on a two-atom alphabet attains
        fam = HypothesisFamily([Distribution([0.9, 0.1]), Distribution([0.2, 0.8])])
        rep = verify_identical_d2_bound(fam)
        assert rep.sup_min_hellinger == pytest.approx(fam.max_pairwise_hellinger, rel=1e-15)

    def test_chi_square_budget_and_its_average_tv_corollary(self):
        # Cauchy-Schwarz: TV(Tp_i, Tb) <= sqrt(chi^2_i) / 2, and the mean of
        # the roots is at most the root of the mean, so the budget implies
        # avg TV <= eps sqrt((D - 1) / M) / 2, below the eps sqrt(D / M) of
        # the L1 embedding bound
        fam = hadamard_instance(8, 0.4)
        rng = np.random.default_rng(45)
        for d in (2, 3, 5) * 7:
            m = rng.random((d, fam.k)) + 1e-3
            chan = Channel(m / m.sum(axis=0))
            budget = chi_square_budget(fam, chan)
            assert 0.0 < budget <= 1.0 + 1e-12
            t_base = apply_channel(chan, fam.base)
            avg_tv = np.mean([total_variation(apply_channel(chan, p), t_base)
                              for p in fam.dists])
            bound = 0.5 * 0.4 * math.sqrt((d - 1) / fam.m)
            assert avg_tv <= bound * math.sqrt(budget) * (1 + 1e-12)
            assert bound < 0.4 * math.sqrt(d / fam.m)

    @pytest.mark.parametrize("m", [2, 7, 8, 31, 63])
    @pytest.mark.parametrize("eps", [0.1, 0.4, 0.9])
    def test_sign_channels_meet_the_chi_square_budget(self, m, eps):
        fam = hadamard_instance(m, eps)
        u = fam.base.probs
        for p in fam.dists:
            chan = Channel(np.vstack([p.probs > u, p.probs <= u]))
            assert chi_square_budget(fam, chan) == pytest.approx(1.0, rel=0, abs=1.1e-14)

    def test_chi_square_budget_of_the_identity_channel(self):
        # chi^2(p_i || u) = eps^2 for every row, so the budget is M / (k - 1):
        # met at M = k - 1
        assert chi_square_budget(hadamard_instance(7, 0.3), Channel.identity(8)) == \
            pytest.approx(1.0, rel=1e-14)
        assert chi_square_budget(hadamard_instance(4, 0.3), Channel.identity(8)) == \
            pytest.approx(4 / 7, rel=1e-14)

    def test_chi_square_budget_skips_outputs_unused_under_the_base(self):
        fam = hadamard_instance(3, 0.4)  # k = 4
        half = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        with_idle = Channel(np.vstack([half, np.zeros(4)]))
        # same chi^2 sum, spread over D - 1 = 2 instead of 1
        assert chi_square_budget(fam, with_idle) == \
            pytest.approx(chi_square_budget(fam, Channel(half)) / 2, rel=1e-15)

    def test_chi_square_budget_validation(self):
        fam = HypothesisFamily(
            [Distribution([0.9, 0.1]), Distribution([0.1, 0.9])]
        )
        with pytest.raises(ValidationError, match="base"):
            chi_square_budget(fam, Channel.identity(2))
        with pytest.raises(ValidationError, match="two outputs"):
            chi_square_budget(hadamard_instance(3, 0.4), Channel(np.ones((1, 4))))
