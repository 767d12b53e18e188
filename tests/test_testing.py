import warnings

import numpy as np
import pytest

from commtest import (
    Channel,
    ContaminationSetup,
    Distribution,
    NonConvergenceError,
    TestRule,
    ValidationError,
    apply_channel,
    counts_sampler,
    empirical_sample_complexity,
    hadamard_instance,
    hellinger_sq,
    huber_lfd,
    lrt_decide,
    robust_decide,
    scheffe_channel,
    simulate_error,
    total_variation,
    tournament_adaptive,
)
from commtest import decision
from commtest.decision import message_llr, prefers_first, trials_prefer_first
from commtest.testing import _group_sizes

# +inf on message 0, -inf on message 1, finite on messages 2 and 3.
CONFLICT_P = Distribution([0.4, 0.0, 0.3, 0.3])
CONFLICT_Q = Distribution([0.0, 0.4, 0.4, 0.2])


def identity_rule(k):
    return TestRule([Channel.identity(k)])


class TestRuleBasics:
    def test_needs_channels(self):
        with pytest.raises(ValidationError):
            TestRule([])

    def test_round_robin(self):
        a, b = Channel.identity(2), Channel(np.full((2, 2), 0.5))
        rule = TestRule([a, b])
        assert [rule.channels[u % len(rule.channels)] for u in range(3)] == [a, b, a]

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            TestRule([Channel.identity(2), Channel.identity(3)])

    def test_group_sizes(self):
        rule = TestRule([Channel.identity(2), Channel(np.full((2, 2), 0.5))])
        assert _group_sizes(rule, 5) == [3, 2]
        assert _group_sizes(rule, 1) == [1, 0]


class TestLrtDecide:
    def test_majority_decisions(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        rule = identity_rule(2)
        assert lrt_decide(p, q, rule, [0, 0, 1]) == "P"
        assert lrt_decide(p, q, rule, [1, 1, 0]) == "Q"

    def test_tie_goes_to_p(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        assert lrt_decide(p, q, identity_rule(2), [0, 1]) == "P"

    def test_message_out_of_range(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        with pytest.raises(ValidationError):
            lrt_decide(p, q, identity_rule(2), [2])

    def test_conflicting_infinities_balance(self):
        p = Distribution([0.5, 0.5, 0.0])
        q = Distribution([0.0, 0.5, 0.5])
        # message 0 has llr +inf, message 2 has llr -inf; together treated as 0
        assert lrt_decide(p, q, identity_rule(3), [0, 2]) == "P"

    def test_non_integer_messages(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        with pytest.raises(ValidationError):
            lrt_decide(p, q, identity_rule(2), [0, 1.0])
        with pytest.raises(ValidationError):
            lrt_decide(p, q, identity_rule(2), [[0, 1]])

    def test_conflicting_infinities_ignore_order(self):
        rule = identity_rule(4)
        # +inf + -inf + log(3/4) is NaN, a tie, in whatever order it is summed
        assert lrt_decide(CONFLICT_P, CONFLICT_Q, rule, [0, 1, 2]) == "P"
        assert lrt_decide(CONFLICT_P, CONFLICT_Q, rule, [2, 0, 1]) == "P"

    def test_permuting_users_of_a_channel_keeps_decision(self):
        rng = np.random.default_rng(8)
        chans = [Channel.identity(4), Channel(rng.dirichlet(np.ones(3), size=4).T)]
        rule = TestRule(chans)
        for trial in range(200):
            p, q = (CONFLICT_P, CONFLICT_Q) if trial % 2 else (
                Distribution(rng.dirichlet(np.ones(4))), Distribution(rng.dirichlet(np.ones(4))))
            n = int(rng.integers(1, 12))
            msgs = np.array([rng.integers(chans[u % 2].out_size) for u in range(n)])
            shuffled = msgs.copy()
            for g in range(2):
                shuffled[g::2] = rng.permutation(msgs[g::2])
            assert lrt_decide(p, q, rule, shuffled.tolist()) == lrt_decide(p, q, rule, msgs)

    def test_agrees_with_per_message_sum(self):
        rng = np.random.default_rng(9)
        chans = [Channel(rng.dirichlet(np.ones(d), size=5).T) for d in (2, 3, 4)]
        rule = TestRule(chans)
        for _ in range(100):
            p = Distribution(rng.dirichlet(np.ones(5)))
            q = Distribution(rng.dirichlet(np.ones(5)))
            msgs = [int(rng.integers(chans[u % 3].out_size)) for u in range(50)]  # round robin
            terms = []
            for u, y in enumerate(msgs):
                tp = apply_channel(chans[u % 3], p).probs
                tq = apply_channel(chans[u % 3], q).probs
                terms.append(np.log(tp[y] / tq[y]))
            stat = sum(terms)
            if abs(stat) > 1e-9 * sum(abs(t) for t in terms):
                assert lrt_decide(p, q, rule, msgs) == ("P" if stat > 0 else "Q")

    def test_no_numpy_warnings(self):
        # messages 2 and 4 are impossible under both hypotheses
        p = Distribution([0.5, 0.5, 0.0, 0.0, 0.0])
        q = Distribution([0.0, 0.5, 0.0, 0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lrt_decide(p, q, identity_rule(5), [0, 3, 2, 4, 1]) == "P"
            assert lrt_decide(p, q, identity_rule(5), [3, 2]) == "Q"
            simulate_error(identity_rule(5), p, q, 6, trials=300, seed=1,
                           p_sampler=Distribution([0.2] * 5))

    def test_codes_through_index_are_read_as_bytes(self):
        class Code:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        p, q = Distribution([0.9, 0.1]), Distribution([0.1, 0.9])
        assert lrt_decide(p, q, identity_rule(2), [Code(1), Code(1), 0]) == "Q"
        assert lrt_decide(p, q, identity_rule(2), (Code(0),)) == "P"
        with pytest.raises(ValidationError, match="^messages must be a flat"):
            lrt_decide(p, q, identity_rule(2), [Code(256)])  # past a byte: to numpy


def test_referees_read_a_list_of_codes_without_numpy_conversion(monkeypatch):
    """A list or tuple of codes 0..255 never reaches `np.asarray`: `lrt_decide`
    and `robust_decide` read it as bytes, while an array still goes through it."""
    from commtest import testing

    rng = np.random.default_rng(23)
    p, q = (Distribution(row) for row in rng.dirichlet(np.ones(6), size=2))
    rule = TestRule([Channel(rng.dirichlet(np.ones(d), size=6).T) for d in (2, 4, 8)])
    lfd = huber_lfd(ContaminationSetup(p, q, 0.05))
    robust = Channel(rng.dirichlet(np.ones(4), size=6).T)
    msgs = (rng.random(999) * np.resize([2, 4, 8], 999)).astype(int).tolist()
    robust_msgs = rng.integers(0, 4, 500).tolist()
    want = [lrt_decide(p, q, rule, np.array(msgs)),
            robust_decide(robust, lfd, np.array(robust_msgs))]
    converted = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, *args, **kwargs):
            converted.append(args[0])
            return np.asarray(*args, **kwargs)

    monkeypatch.setattr(testing, "np", Spy())
    for given, robust_given in ((msgs, robust_msgs), (tuple(msgs), tuple(robust_msgs))):
        assert [lrt_decide(p, q, rule, given), robust_decide(robust, lfd, robust_given)] == want
    assert converted == []
    assert lrt_decide(p, q, rule, np.array(msgs)) == want[0]
    assert len(converted) == 1  # the spy sees the array path


class TestLlrKernel:
    def test_message_llr(self):
        llr = message_llr(Channel.identity(5), Distribution([0.5, 0.0, 0.25, 0.25, 0.0]),
                          Distribution([0.0, 0.5, 0.25, 0.125, 0.125]))
        assert llr[[0, 1, 2, 4]].tolist() == [np.inf, -np.inf, 0.0, -np.inf]
        assert llr[3] == pytest.approx(np.log(2.0))
        both_zero = message_llr(Channel.identity(3), Distribution([1.0, 0.0, 0.0]),
                                Distribution([0.0, 1.0, 0.0]))
        assert both_zero[2] == 0.0

    def test_memoized_table_is_read_only(self):
        channel = Channel.identity(3)
        p, q = Distribution([0.5, 0.25, 0.25]), Distribution([0.25, 0.25, 0.5])
        first = message_llr(channel, p, q)
        assert message_llr(channel, p, q) is first  # the same objects hit
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert message_llr(channel, q, p) is not first

    def test_memo_never_holds_more_than_its_cap(self):
        p, q = Distribution([0.5, 0.5]), Distribution([0.25, 0.75])
        channels = [Channel.identity(2) for _ in range(3 * decision._MEMO_CAP)]
        for i, channel in enumerate(channels):
            message_llr(channel, p, q)
            assert len(decision._memo) <= decision._MEMO_CAP, i
        # the oldest go first: the latest cap triples are all still there, in order
        kept = [entry[0] for entry in decision._memo.values()]
        assert len(kept) == decision._MEMO_CAP
        assert all(a is b for a, b in zip(kept, channels[-decision._MEMO_CAP:]))

    def test_unsent_infinite_messages_add_nothing(self):
        # an unsent +-inf multiplied in would give 0 * inf = NaN, a tie that goes to P
        for sign, counts, want in ((1.0, [0, 0, 3], True), (-1.0, [0, 0, 3], False),
                                   (-1.0, [2, 0, 1], True), (1.0, [0, 2, 1], False)):
            llr = np.array([np.inf, -np.inf, sign * 0.5])
            assert prefers_first([np.array(counts)], [llr]) is want
            assert trials_prefer_first([np.array([counts])], [llr]).tolist() == [want]

    def test_conflicting_infinities_are_a_tie_across_groups(self):
        inf_llr, minus_llr = np.array([np.inf, 1.0]), np.array([-np.inf, -1.0])
        counts = [np.array([1, 0]), np.array([1, 5])]
        assert prefers_first(counts, [inf_llr, minus_llr]) is True
        assert prefers_first(counts[::-1], [minus_llr, inf_llr]) is True
        assert trials_prefer_first([c[None] for c in counts], [inf_llr, minus_llr]).tolist() == \
            [True]

    def test_trial_axis(self):
        # statistics +inf, -2, +inf + -inf and -inf: ties go to P
        llr = np.array([np.inf, -np.inf, -1.0])
        counts = np.array([[1, 0, 2], [0, 0, 2], [1, 1, 0], [0, 2, 0]])
        assert trials_prefer_first([counts], [llr]).tolist() == [True, False, True, False]
        assert [prefers_first([row], [llr]) for row in counts] == [True, False, True, False]

    def test_an_exact_tie_goes_to_p(self):
        llr = np.array([0.5, -0.25])
        assert prefers_first([np.array([1, 2])], [llr]) is True
        assert prefers_first([np.array([1, 3])], [llr]) is False
        assert trials_prefer_first([np.array([[1, 2], [1, 3]])], [llr]).tolist() == [True, False]


def test_every_referee_reads_its_tables_from_message_llr(monkeypatch):
    """With `message_llr` swapping p and q, the simulator, the referee, the
    robust referee and a knockout game all change: each builds no table of
    its own."""
    p, q = Distribution([0.7, 0.3]), Distribution([0.3, 0.7])
    lfd = huber_lfd(ContaminationSetup(p, q, 0.05))

    def outcomes():
        rep = simulate_error(identity_rule(2), p, q, 5, trials=500, seed=3)
        fam = hadamard_instance(4, 0.4)  # a fresh family: no game tables kept
        knockout = tournament_adaptive(fam, 3, counts_sampler(fam.dists[2]), seed=0)
        return (rep.error_p, rep.error_q, lrt_decide(p, q, identity_rule(2), [0, 0, 1]),
                robust_decide(Channel.identity(2), lfd, [0, 0, 1]), knockout.games[0].winner)

    exact = outcomes()
    table = decision.message_llr
    monkeypatch.setattr(decision, "message_llr", lambda channel, a, b: table(channel, b, a))
    swapped = outcomes()
    assert [a != b for a, b in zip(exact, swapped)] == [True] * 5, (exact, swapped)


class TestScheffe:
    def test_preserves_tv_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            p = Distribution(rng.dirichlet(np.ones(k)))
            q = Distribution(rng.dirichlet(np.ones(k)))
            chan = scheffe_channel(p, q)
            assert chan.out_size == 2
            assert total_variation(
                apply_channel(chan, p), apply_channel(chan, q)
            ) == pytest.approx(total_variation(p, q), abs=1e-12)

    def test_indicator_rows(self):
        p = Distribution([0.01, 0.48, 0.51])
        q = Distribution([0.0, 0.5, 0.5])
        chan = scheffe_channel(p, q)
        assert list(chan.matrix[0]) == [1.0, 0.0, 1.0]
        # known output pair for this instance
        tp = apply_channel(chan, p)
        assert tp.probs == pytest.approx([0.52, 0.48])


SIMULATE_ARG_CASES = [
    ({"n": 10.5}, "n must be an integer, got 10.5"),
    ({"n": True}, "n must be an integer, got True"),
    ({"n": 0}, "n must be at least 1, got 0"),
    ({"n": 10**19}, "n must be at most 2**63 - 1, got 10000000000000000000"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": False}, "trials must be an integer, got False"),
    ({"trials": -3}, "trials must be at least 1, got -3"),
    ({"trials": 2**63}, "trials must be at most 2**63 - 1, got 9223372036854775808"),
    ({"seed": -1}, "seed must be at least 0, got -1"),
    ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": [1, 2]}, "seed must be an integer, got [1, 2]"),
]


class TestSimulateError:
    def test_deterministic_given_seed(self):
        p = Distribution([0.8, 0.2])
        q = Distribution([0.2, 0.8])
        r1 = simulate_error(identity_rule(2), p, q, 10, trials=500, seed=42)
        r2 = simulate_error(identity_rule(2), p, q, 10, trials=500, seed=42)
        assert r1 == r2
        r3 = simulate_error(identity_rule(2), p, q, 10, trials=500, seed=43)
        assert r3 != r1

    def test_identical_hypotheses_error_is_one(self):
        p = Distribution([0.5, 0.5])
        rep = simulate_error(identity_rule(2), p, p, 10, trials=200, seed=0)
        # all llr are zero -> every trial decides P: error_q = 1 exactly
        assert rep.error_p == 0.0
        assert rep.error_q == 1.0
        assert rep.error_sum_estimate == pytest.approx(1.0)

    def test_error_decreases_with_n(self):
        p = Distribution([0.7, 0.2, 0.1])
        q = Distribution([0.1, 0.2, 0.7])
        rule = identity_rule(3)
        r_small = simulate_error(rule, p, q, 10, trials=4000, seed=5)
        r_big = simulate_error(rule, p, q, 40, trials=4000, seed=5)
        assert (
            r_big.error_sum_estimate
            <= r_small.error_sum_estimate + 2 * r_small.ci_halfwidth
        )

    def test_sampler_override(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        # sample the P branch from q: the rule should now get it wrong often
        rep = simulate_error(
            identity_rule(2), p, q, 20, trials=500, seed=0, p_sampler=q
        )
        assert rep.error_p > 0.5

    def test_sampler_conflicting_infinities_decide_p(self):
        # Sampling messages 0 (+inf) and 1 (-inf) only: a mixed sample is a
        # tie and goes to P, so only the all-1 samples (2^-10) decide Q.
        sampler = Distribution([0.5, 0.5, 0.0, 0.0])
        rep = simulate_error(identity_rule(4), CONFLICT_P, CONFLICT_Q, 10, trials=4000,
                             seed=0, p_sampler=sampler, q_sampler=sampler)
        assert rep.error_q > 0.99
        assert rep.error_p < 0.01

    def test_validation(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        with pytest.raises(ValidationError):
            simulate_error(identity_rule(2), p, q, 0, trials=10)

    @pytest.mark.parametrize("kwargs, message", SIMULATE_ARG_CASES,
                             ids=[message for _, message in SIMULATE_ARG_CASES])
    def test_sizes_and_seed_are_checked(self, kwargs, message):
        p, q = Distribution([0.9, 0.1]), Distribution([0.1, 0.9])
        args = {"n": 10, "trials": 10, "seed": 0, **kwargs}
        with pytest.raises(ValidationError) as exc:
            simulate_error(identity_rule(2), p, q, **args)
        assert str(exc.value) == message

    def test_numpy_ints_are_echoed_as_int(self):
        p, q = Distribution([0.9, 0.1]), Distribution([0.1, 0.9])
        rep = simulate_error(identity_rule(2), p, q, np.int64(10), trials=np.uint16(50),
                             seed=np.int32(4))
        assert [type(v) for v in (rep.n, rep.trials, rep.seed)] == [int] * 3
        assert rep == simulate_error(identity_rule(2), p, q, 10, trials=50, seed=4)
        assert simulate_error(identity_rule(2), p, q, 10, trials=50, seed=2**70).seed == 2**70

    def test_report_json(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        rep = simulate_error(identity_rule(2), p, q, 5, trials=100, seed=1)
        obj = rep.to_json()
        assert obj["n"] == 5 and obj["seed"] == 1
        assert obj["error_sum_estimate"] == pytest.approx(
            obj["error_p"] + obj["error_q"]
        )


SEARCH_ARG_CASES = [
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": 0}, "trials must be at least 1, got 0"),
    ({"seed": -1}, "seed must be at least 0, got -1"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"n_max": 64.0}, "n_max must be an integer, got 64.0"),
    ({"n_max": 0}, "n_max must be at least 1, got 0"),
    ({"budget": float("nan")}, "budget must be at least 0, got nan"),
    ({"budget": -1.0}, "budget must be at least 0, got -1.0"),
]


class TestSampleComplexity:
    @pytest.mark.parametrize("kwargs, message", SEARCH_ARG_CASES,
                             ids=[message for _, message in SEARCH_ARG_CASES])
    def test_trials_seed_and_n_max_are_checked(self, kwargs, message):
        p, q = Distribution([0.9, 0.1]), Distribution([0.1, 0.9])
        with pytest.raises(ValidationError) as exc:
            empirical_sample_complexity(lambda n: identity_rule(2), p, q, **kwargs)
        assert str(exc.value) == message

    def test_zero_budget_on_a_separable_pair_takes_one_sample(self):
        p, q = Distribution([1.0, 0.0]), Distribution([0.0, 1.0])
        assert empirical_sample_complexity(lambda n: identity_rule(2), p, q, trials=100,
                                           budget=0.0) == 1

    def test_bernoulli_in_expected_range(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.1, 0.9])
        n_hat = empirical_sample_complexity(
            lambda n: identity_rule(2), p, q, trials=4000, seed=0
        )
        assert 1 <= n_hat <= 20

    def test_deterministic(self):
        p = Distribution([0.7, 0.3])
        q = Distribution([0.3, 0.7])
        args = dict(trials=2000, seed=7)
        first = empirical_sample_complexity(lambda n: identity_rule(2), p, q, **args)
        second = empirical_sample_complexity(lambda n: identity_rule(2), p, q, **args)
        assert first == second

    def test_identical_hypotheses_never_converge(self):
        p = Distribution([0.5, 0.5])
        with pytest.raises(NonConvergenceError):
            empirical_sample_complexity(
                lambda n: identity_rule(2), p, p, trials=100, seed=0, n_max=64
            )

    def test_probes_n_max_once_doubling_passes_it(self):
        # the doubling stops at 1024; 2048 is past n_max, so n_max is probed
        p, q = Distribution([0.5, 0.5]), Distribution([0.45, 0.55])
        probed = []

        def search(n_max):
            probed.clear()
            return empirical_sample_complexity(lambda n: probed.append(n) or identity_rule(2),
                                               p, q, trials=4000, seed=0, n_max=n_max)

        assert search(1_000_000) == 1154
        doubling = [2 ** i for i in range(11)]
        # each n's estimate has its own seed, so bisecting (1024, 1154]
        # meets an accepted n below the one that bisecting (1024, 2048] found
        assert search(1154) == 1105 and probed[:12] == doubling + [1154]
        with pytest.raises(NonConvergenceError, match="up to 1153"):
            search(1153)
        assert probed == doubling + [1153]
        with pytest.raises(NonConvergenceError, match="up to 1024"):
            search(1024)
        assert probed == doubling  # n_max was the last doubling: no second probe

    def test_scaling_with_hellinger(self):
        # harder pair needs more samples
        easy_p, easy_q = Distribution([0.9, 0.1]), Distribution([0.1, 0.9])
        hard_p, hard_q = Distribution([0.55, 0.45]), Distribution([0.45, 0.55])
        n_easy = empirical_sample_complexity(
            lambda n: identity_rule(2), easy_p, easy_q, trials=2000, seed=3
        )
        n_hard = empirical_sample_complexity(
            lambda n: identity_rule(2), hard_p, hard_q, trials=2000, seed=3
        )
        assert n_hard > n_easy
        assert hellinger_sq(easy_p, easy_q) > hellinger_sq(hard_p, hard_q)
