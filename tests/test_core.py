import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtest import (
    Channel,
    DimensionError,
    Distribution,
    ThresholdSet,
    ValidationError,
    apply_channel,
    builtin_fdiv,
    f_divergence,
    hellinger_affinity,
    hellinger_sq,
    likelihood_ratios,
    sym_chi_spec,
    threshold_channel,
    total_variation,
)


def dist_strategy(max_k=8):
    return (
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=max_k)
        .filter(lambda w: sum(w) > 1e-6)
        .map(lambda w: Distribution(np.asarray(w) / sum(w)))
    )


class TestDistribution:
    def test_renormalizes_within_tolerance(self):
        d = Distribution([0.5, 0.5 + 1e-10])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Distribution([0.5, 0.6])

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValidationError):
            Distribution([-0.1, 1.1])
        with pytest.raises(ValidationError):
            Distribution([math.nan, 1.0])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            Distribution([[0.5, 0.5]])
        with pytest.raises(ValidationError):
            Distribution([])

    def test_support_and_k(self):
        d = Distribution([0.5, 0.0, 0.5])
        assert d.k == 3
        assert list(np.flatnonzero(d.probs)) == [0, 2]  # zeros stay zeros

    def test_json_round_trip(self):
        d = Distribution([0.25, 0.75])
        assert Distribution.from_json(d.to_json()) == d

    def test_immutable(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_hash_and_eq(self):
        assert Distribution([0.5, 0.5]) == Distribution([0.5, 0.5])
        assert hash(Distribution([0.5, 0.5])) == hash(Distribution([0.5, 0.5]))
        assert Distribution([0.5, 0.5]) != Distribution([0.4, 0.6])


class TestChannel:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            Channel([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(ValidationError):
            Channel([[1.5, 0.0], [-0.5, 1.0]])

    def test_sizes_and_determinism(self):
        c = Channel([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert (c.out_size, c.in_size) == (2, 3)
        assert np.array_equal(c.matrix.max(axis=0), np.ones(3))  # deterministic

    def test_apply(self):
        c = Channel([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        out = apply_channel(c, Distribution([0.2, 0.5, 0.3]))
        assert out.probs == pytest.approx([0.5, 0.5])

    def test_apply_dimension_mismatch(self):
        c = Channel.identity(2)
        with pytest.raises(DimensionError):
            apply_channel(c, Distribution([0.2, 0.5, 0.3]))

    def test_compose(self):
        inner = Channel([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        outer = Channel([[0.0, 1.0], [1.0, 0.0]])
        composed = outer.compose(inner)
        p = Distribution([0.2, 0.5, 0.3])
        expected = apply_channel(outer, apply_channel(inner, p))
        assert composed.matrix @ p.probs == pytest.approx(expected.probs)

    def test_compose_mismatch(self):
        with pytest.raises(DimensionError):
            Channel.identity(3).compose(Channel.identity(2))

    def test_identity_padding(self):
        c = Channel.identity(2, 4)
        assert (c.out_size, c.in_size) == (4, 2)
        assert apply_channel(c, Distribution([0.3, 0.7])).probs == pytest.approx(
            [0.3, 0.7, 0.0, 0.0]
        )
        with pytest.raises(ValidationError):
            Channel.identity(3, 2)

    def test_json_round_trip(self):
        c = Channel([[0.25, 1.0], [0.75, 0.0]])
        c2 = Channel.from_json(c.to_json())
        assert np.array_equal(c.matrix, c2.matrix)


class TestThresholds:
    def test_sorted_positive(self):
        with pytest.raises(ValidationError):
            ThresholdSet([1.0, 0.5])
        with pytest.raises(ValidationError):
            ThresholdSet([0.0, 1.0])
        assert ThresholdSet([0.5, 0.5, 2.0]).out_size == 4  # repeats allowed

    def test_likelihood_ratio_conventions(self):
        p = Distribution([0.5, 0.5, 0.0, 0.0])
        q = Distribution([0.25, 0.0, 0.75, 0.0])
        r = likelihood_ratios(p, q)
        assert r[0] == pytest.approx(2.0)
        assert math.isinf(r[1])
        assert r[2] == 0.0  # p = 0 < q
        assert r[3] == 0.0  # both zero

    def test_threshold_channel_labels(self):
        p = Distribution([0.5, 0.5, 0.0, 0.0])
        q = Distribution([0.25, 0.0, 0.25, 0.5])
        # ratios: 2, inf, 0, 0; cells [0,1), [1,3), [3,inf)
        chan = threshold_channel(p, q, ThresholdSet([1.0, 3.0]))
        assert np.array_equal(chan.matrix, np.eye(3)[:, [1, 2, 0, 0]])

    def test_threshold_boundary_is_right_closed(self):
        # ratio exactly at a threshold lands in the upper cell
        p = Distribution([0.5, 0.5])
        q = Distribution([0.25, 0.75])
        chan = threshold_channel(p, q, ThresholdSet([2.0]))
        assert np.argmax(chan.matrix[:, 0]) == 1


class TestFDivergence:
    def test_builtin_lookup(self):
        assert builtin_fdiv("hellinger").name == "hellinger"
        assert builtin_fdiv("sym_chi_1.5").alpha == 1.5
        with pytest.raises(ValidationError):
            builtin_fdiv("kl")
        with pytest.raises(ValidationError):
            builtin_fdiv("sym_chi_x")
        with pytest.raises(ValidationError):
            sym_chi_spec(2.5)

    def test_sym_chi_name_gives_back_its_order(self):
        # "sym_chi_1.2345678" was named "sym_chi_1.23457", which looked up
        # another generator
        names = {1.0: "sym_chi_1", 1.5: "sym_chi_1.5", 2.0: "sym_chi_2",
                 1.2345678: "sym_chi_1.2345678", 1 + 2**-52: "sym_chi_1.0000000000000002"}
        for s, name in names.items():
            assert sym_chi_spec(s).name == name
        rng = np.random.default_rng(78)
        for s in [*names, 2 - 2**-52, *(1.0 + rng.random(200)).tolist(),
                  *np.round(1.0 + rng.random(50), 3).tolist()]:
            spec = sym_chi_spec(s)
            looked_up = builtin_fdiv(spec.name)
            assert looked_up == spec and looked_up.alpha == s, s
            assert looked_up.f(0.3) == spec.f(0.3), s

    def test_matches_closed_forms(self):
        p = Distribution([0.7, 0.2, 0.1])
        q = Distribution([0.1, 0.3, 0.6])
        assert f_divergence(builtin_fdiv("tv"), p, q) == pytest.approx(
            total_variation(p, q)
        )
        assert f_divergence(builtin_fdiv("hellinger"), p, q) == pytest.approx(
            hellinger_sq(p, q)
        )

    def test_zero_handling(self):
        p = Distribution([0.5, 0.5, 0.0])
        q = Distribution([0.5, 0.0, 0.5])
        # hellinger: 0*f(0/0)=0; q=0 < p contributes p*slope=0.5; p=0 adds f(0)*q
        assert f_divergence(builtin_fdiv("hellinger"), p, q) == pytest.approx(1.0)
        assert math.isinf(f_divergence(builtin_fdiv("sym_kl"), p, q))
        assert f_divergence(builtin_fdiv("tv"), p, q) == pytest.approx(0.5)

    def test_identical_is_zero(self):
        p = Distribution([0.3, 0.7])
        for name in ("hellinger", "tv", "sym_kl", "triangular", "sym_chi_1.5"):
            assert f_divergence(builtin_fdiv(name), p, p) == 0.0

    def test_evaluate_rejects_negative(self):
        with pytest.raises(ValidationError):
            builtin_fdiv("tv").evaluate(-0.5)

    def test_overflowing_ratio_takes_a_over_zero_limit(self):
        # 0.5 / 1e-309 overflows: the summand is 0.5 f(1e-309 / 0.5), which
        # rounds to 0.5 * f'(inf) for these generators; sym_kl still reads
        # inf, from the atom with p_i = 0 < q_i
        p = Distribution([0.5, 0.5, 0.0])
        q = Distribution([1e-309, 0.5, 0.5 - 1e-309])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = likelihood_ratios(p, q)
            assert math.isinf(r[0])
            assert f_divergence(builtin_fdiv("hellinger"), p, q) == pytest.approx(
                hellinger_sq(p, q)
            )
            assert f_divergence(builtin_fdiv("tv"), p, q) == pytest.approx(
                total_variation(p, q)
            )
            assert f_divergence(builtin_fdiv("triangular"), p, q) == pytest.approx(1.0)
            assert math.isinf(f_divergence(builtin_fdiv("sym_kl"), p, q))

    def test_overflowing_ratio_keeps_a_finite_summand(self):
        # 0.5 / 1e-309 overflows, yet 1e-309 f(0.5 / 1e-309) is finite where
        # f'(inf) = inf: the summand is 0.5 f(1e-309 / 0.5)
        p, q = Distribution([0.5, 0.5]), Distribution([1e-309, 1 - 1e-309])
        cases = [
            ("sym_kl", 355.7494, lambda pi, qi: (pi - qi) * (math.log(pi) - math.log(qi))),
            ("sym_chi_1.5", 1.1180e154,
             lambda pi, qi: abs(pi - qi) ** 1.5 * (qi ** -0.5 + pi ** -0.5)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, about, term in cases:
                got = f_divergence(builtin_fdiv(name), p, q)
                closed = sum(term(float(pi), float(qi)) for pi, qi in zip(p.probs, q.probs))
                assert math.isfinite(got)
                assert got == pytest.approx(closed, rel=1e-12)
                assert got == pytest.approx(about, rel=1e-4)
            # where f'(inf) is finite, 0.5 f(2e-309) rounds to 0.5 f'(inf)
            pi, qi = p.probs[1], q.probs[1]
            for name in ("hellinger", "tv", "triangular", "sym_chi_1"):
                spec = builtin_fdiv(name)
                want = 0.0 + 0.5 * spec.slope_at_inf + qi * spec.evaluate(pi / qi)
                assert f_divergence(spec, p, q) == want, name

    def test_triangular_huge_finite_quotient(self):
        # 0.5 / 1e-300 is finite, but its (x - 1)**2 would overflow
        p = Distribution([0.5, 0.5, 0.0])
        q = Distribution([1e-300, 0.5, 0.5 - 1e-300])
        spec = builtin_fdiv("triangular")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f_divergence(spec, p, q) == pytest.approx(1.0, rel=1e-15)
            assert spec.evaluate(1e300) == pytest.approx(1e300, rel=1e-15)
            assert spec.evaluate(np.float64(1e300)) == pytest.approx(1e300, rel=1e-15)

    def test_superlinear_generator_huge_finite_quotient(self):
        # p_i / q_i is finite, but f of it overflows: the summand comes from
        # the symmetric form p_i f(q_i / p_i) instead of reading inf
        cases = [
            ("sym_kl", [1e-3, 1 - 1e-3], [1e-311, 1 - 1e-311], 0.709,
             lambda pi, qi: (pi - qi) * math.log(pi / qi)),
            ("sym_chi_1.5", [0.5, 0.5], [1e-300, 1 - 1e-300], 3.5e149,
             lambda pi, qi: abs(pi - qi) ** 1.5 * (qi ** -0.5 + pi ** -0.5)),
        ]
        for name, pw, qw, about, term in cases:
            p, q = Distribution(pw), Distribution(qw)
            closed = sum(term(float(pi), float(qi)) for pi, qi in zip(p.probs, q.probs))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = f_divergence(builtin_fdiv(name), p, q)
            assert got == pytest.approx(closed, rel=1e-12)
            assert got == pytest.approx(about, rel=2e-2)

    def test_triangular_unchanged_where_plain_form_is_finite(self):
        def plain(x):
            return (x - 1.0) ** 2 / (1.0 + x)

        edge = math.sqrt(np.finfo(float).max)  # also the float x with x - 1 == edge
        rng = np.random.default_rng(23)
        xs = np.concatenate([
            rng.random(500) * 4.0,
            10.0 ** rng.uniform(-300, 154.127, 2000),
            [0.0, 1.0, 1e154, edge, math.nextafter(edge, 0.0)],
        ])
        spec = builtin_fdiv("triangular")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spec.f(xs)
            # the square is t * t, on arrays and on each float alike; Python's
            # t ** 2 (libm pow) may round it apart
            assert got.tobytes() == (np.square(xs - 1.0) / (1.0 + xs)).tobytes()
            assert [spec.f(x) for x in xs.tolist()] == got.tolist()
            for x, value in zip(xs.tolist(), got.tolist()):
                assert value == pytest.approx(plain(x), rel=1e-15, abs=0.0), x
        with pytest.raises(OverflowError):
            plain(math.nextafter(edge, math.inf))
        past = np.array([math.nextafter(edge, math.inf), 1e200, 1e300, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spec.f(past) == pytest.approx(past, rel=1e-15)

    def test_array_matches_plain_quotient_when_finite(self):
        # reference: the summand q_i f(p_i / q_i) one atom at a time, with no
        # overflow guard, on instances with subnormal masses whose quotients
        # stay finite; f on numpy scalars where the kernel takes it on arrays
        exact = {"hellinger", "tv", "triangular", "sym_chi_1"}  # no log or pow: the same bytes
        summand_rtol = 2e-15  # elsewhere numpy's array and scalar log and pow may round apart
        specs = [builtin_fdiv(n) for n in
                 ("hellinger", "tv", "sym_kl", "triangular", "sym_chi_1", "sym_chi_1.5")]
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            k = int(rng.integers(2, 9))
            w = rng.dirichlet(np.ones(k), size=2)
            w[rng.random((2, k)) < 0.2] = 0.0
            w[1, rng.integers(0, k)] = rng.choice([1e-300, 1e-309, 5e-324, 1e-30])
            if w[0].sum() == 0 or w[1].sum() == 0:
                continue
            p, q = Distribution(w[0] / w[0].sum()), Distribution(w[1] / w[1].sum())
            with np.errstate(over="ignore"):
                ratios = p.probs / np.where(q.probs > 0, q.probs, 1.0)
            if not np.all(np.isfinite(ratios)):
                continue
            checked += 1
            for spec in specs:
                ref = 0.0
                with np.errstate(over="ignore", invalid="ignore"):  # huge finite quotients
                    for pi, qi in zip(p.probs, q.probs):
                        if qi > 0:
                            term = qi * spec.evaluate(pi / qi)
                            if pi > 0 and math.isinf(term):  # overflowed: symmetric form
                                term = pi * spec.evaluate(qi / pi)
                            ref += term
                        elif pi > 0:
                            ref += pi * spec.slope_at_inf
                    got = f_divergence(spec, p, q)
                if spec.name in exact or not math.isfinite(ref):
                    assert got == ref or (math.isnan(got) and math.isnan(ref)), spec.name
                else:
                    assert got == pytest.approx(ref, rel=summand_rtol, abs=0.0), spec.name
        assert checked >= 150


class TestPropertyInvariants:
    @settings(max_examples=60, deadline=None)
    @given(dist_strategy(), dist_strategy())
    def test_hellinger_affinity_identity(self, p, q):
        if p.k != q.k:
            return
        assert hellinger_sq(p, q) == pytest.approx(
            2.0 * (1.0 - hellinger_affinity(p, q)), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(dist_strategy(), dist_strategy(), st.integers(0, 2**31 - 1))
    def test_data_processing_tv(self, p, q, seed):
        if p.k != q.k:
            return
        rng = np.random.default_rng(seed)
        m = rng.random((2, p.k)) + 1e-6
        chan = Channel(m / m.sum(axis=0))
        assert total_variation(
            apply_channel(chan, p), apply_channel(chan, q)
        ) <= total_variation(p, q) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(dist_strategy(4), dist_strategy(4), dist_strategy(4), dist_strategy(4))
    def test_hellinger_tensorization(self, p1, q1, p2, q2):
        if p1.k != q1.k or p2.k != q2.k:
            return
        pp = Distribution(np.kron(p1.probs, p2.probs))
        qq = Distribution(np.kron(q1.probs, q2.probs))
        assert hellinger_affinity(pp, qq) == pytest.approx(
            hellinger_affinity(p1, q1) * hellinger_affinity(p2, q2), abs=1e-12
        )
