"""The array kernels behind the public API against the validating path.

The `ref_*` functions below are reference code only: they are the designer,
`apply_channel`, `fdiv_ratio` and the reverse-Markov grids as they were
written on the public, validating objects (a `ThresholdSet`, a `Channel` and
two validated `Distribution` images per candidate, a `DiscreteRV` and a
checked grid per objective). The kernels must give the same floats, the
same arrays and the same errors. The boundary tests check that every public
constructor and entry point still rejects bad input.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from commtest import (
    Channel,
    ContaminationSetup,
    DegenerateInputError,
    DimensionError,
    DiscreteRV,
    Distribution,
    ThresholdSet,
    ValidationError,
    apply_channel,
    builtin_fdiv,
    design_fdiv_channel,
    design_hellinger_channel,
    design_robust_channel,
    fdiv_ratio,
    hadamard_instance,
    hellinger_sq,
    huber_lfd,
    l1_embedding_bound_check,
    likelihood_ratios,
    quantizer,
    reverse_markov_best,
    revmarkov_objective,
    total_variation,
)
from commtest.core import _fdiv_term
from commtest.quantizer import QuantizeResult
from commtest.revmarkov import ThresholdGrid

SPECS = ("hellinger", "tv", "sym_kl", "triangular", "sym_chi_1", "sym_chi_1.5", "sym_chi_2")
_EPS = float(np.finfo(float).eps)


# --------------------------------------------------------------------------
# Reference code: the validating path


def ref_apply(channel, dist):
    if channel.in_size != dist.k:
        raise DimensionError("alphabet mismatch")
    out = np.clip(channel.matrix @ dist.probs, 0.0, None)
    return Distribution(out / out.sum())


def ref_fdiv(spec, p, q):
    if p.k != q.k:
        raise DimensionError("alphabet mismatch")
    total = 0.0
    for pi, qi in zip(p.probs, q.probs):
        total += _fdiv_term(spec, pi, qi)
    return float(total)


def ref_ratio(spec, num, p, q, channel):
    den = ref_fdiv(spec, ref_apply(channel, p), ref_apply(channel, q))
    if num <= quantizer._DIVERGENCE_FLOOR:
        raise DegenerateInputError("I_f(p, q) is zero; preservation ratio undefined")
    if math.isinf(num):
        return 1.0 if math.isinf(den) else math.inf
    if den <= quantizer._DIVERGENCE_FLOOR:
        return math.inf
    return num / den


def ref_threshold_channel(ratios, gamma):
    d = gamma.out_size
    labels = np.searchsorted(gamma.values, ratios, side="right")
    labels[np.isinf(ratios)] = d - 1
    m = np.zeros((d, ratios.size))
    m[labels, np.arange(ratios.size)] = 1.0
    return Channel(m)


def ref_objective(rv, nus):
    nus = np.asarray(nus, dtype=float)
    if nus.ndim != 1 or nus.size < 2 or not np.all(np.isfinite(nus)):
        raise ValidationError("bad grid")
    if np.any(nus < 0) or np.any(np.diff(nus) < -1e-15) or abs(nus[-1] - rv.beta) > 1e-12:
        raise ValidationError("bad grid")
    below = np.searchsorted(rv.values, nus, side="left")
    cum = np.concatenate(([0.0], np.cumsum(rv.masses)))
    return float(np.dot(nus[:-1], cum[below[1:]] - cum[below[:-1]]))


def ref_pad_grid(levels, out_size, beta):
    levels = sorted(levels)
    return tuple(levels + [levels[-1]] * (out_size - 1 - len(levels))) + (beta,)


def ref_check(rv, out_size):
    if rv.mean() <= 0:
        raise DegenerateInputError("E[Y] = 0: no grid has positive objective")
    if out_size < 2:
        raise ValidationError("out_size must be at least 2")


def ref_top(rv, out_size):
    ref_check(rv, out_size)
    scores = rv.values * rv.masses
    order = np.lexsort((rv.values, scores))[::-1]
    chosen = [float(rv.values[i]) for i in order[: out_size - 1] if scores[i] > 0]
    nus = ref_pad_grid(chosen, out_size, rv.beta)
    return ThresholdGrid(nus=nus, achieved=ref_objective(rv, nus))


def ref_first_best_doubling(rv, xs, out_size):
    levels = np.minimum(rv.beta, xs[:, None] * 2.0 ** np.arange(out_size - 1))
    cum = np.concatenate(([0.0], np.cumsum(rv.masses)))
    cells = np.diff(cum[np.searchsorted(rv.values, levels)], axis=1, append=cum[-1])
    scores = np.sum(levels * cells, axis=1)
    near = np.flatnonzero(scores >= scores.max() * (1.0 - 2.0 * out_size * _EPS))
    dots = [np.dot(levels[i], cells[i]) for i in near]
    win = int(np.argmax(dots))
    return dots[win], levels[near[win]]


def ref_geometric(rv, out_size):
    ref_check(rv, out_size)
    positive = rv.values[(rv.values > 0) & (rv.masses > 0)]
    xs = np.unique(positive[:, None] / 2.0 ** np.arange(out_size))
    step = max(1, 2 ** 16 // out_size)
    _, levels = max((ref_first_best_doubling(rv, xs[i:i + step], out_size)
                     for i in range(0, xs.size, step)), key=lambda best: best[0])
    nus = tuple(levels.tolist()) + (rv.beta,)
    return ThresholdGrid(nus=nus, achieved=ref_objective(rv, nus))


def ref_best(rv, out_size):
    top, geo = ref_top(rv, out_size), ref_geometric(rv, out_size)
    return top if top.achieved >= geo.achieved else geo


def ref_min_ratio(p, q):
    nu = 1.0
    for pi, qi in zip(p.probs, q.probs):
        if pi == 0 and qi == 0:
            continue
        if pi == 0 or qi == 0:
            return 0.0
        nu = min(nu, pi / qi if pi < qi else qi / pi)
    return nu


def ref_near_one_grid(spec, ratios, q, out_size):
    mask = (ratios > 1.0) & (ratios < 1.0 + spec.kappa) & (q.probs > 0)
    if not np.any(mask):
        return None
    y_vals, inv = np.unique((ratios[mask] - 1.0) ** spec.alpha, return_inverse=True)
    y_mass = np.zeros_like(y_vals)
    np.add.at(y_mass, inv, q.probs[mask])
    rest = max(0.0, 1.0 - y_mass.sum())
    beta = spec.kappa ** spec.alpha
    if rest > 0:
        if y_vals[0] == 0.0:
            y_mass[0] += rest
        else:
            y_vals = np.concatenate(([0.0], y_vals))
            y_mass = np.concatenate(([rest], y_mass))
    grid = ref_best(DiscreteRV(values=y_vals, masses=y_mass, beta=beta), out_size)
    return [1.0 + nu ** (1.0 / spec.alpha) for nu in grid.nus[:-1]]


def ref_pad_thresholds(levels, out_size):
    levels = sorted(levels)
    return ThresholdSet(levels + [levels[-1]] * (out_size - 1 - len(levels)))


def ref_design(spec, p, q, out_size):
    if out_size < 2:
        raise ValidationError("out_size must be at least 2")
    i_f = ref_fdiv(spec, p, q)
    if i_f <= quantizer._DIVERGENCE_FLOOR:
        raise DegenerateInputError("p and q are (numerically) identical")
    candidates = [([1.0 + spec.kappa], "large-ratio"), ([1.0 / (1.0 + spec.kappa)], "large-ratio")]
    ratios = likelihood_ratios(p, q)
    fwd = ref_near_one_grid(spec, ratios, q, out_size)
    if fwd is not None:
        candidates.append((fwd, "small-ratio"))
    swp = ref_near_one_grid(spec, likelihood_ratios(q, p), p, out_size)
    if swp is not None:
        candidates.append((sorted(1.0 / t for t in swp), "small-ratio"))
    sep = quantizer._ratio_cuts(p, q)
    if 0 < len(sep) < out_size:
        candidates.append((sep, "small-ratio"))
    scored = []
    for levels, case in candidates:
        gamma = ref_pad_thresholds(levels, out_size)
        channel = ref_threshold_channel(ratios, gamma)
        scored.append((ref_ratio(spec, i_f, p, q, channel), channel, gamma, case))
    ratio, channel, gamma, case = min(scored, key=lambda item: item[0])
    k_support = int(np.count_nonzero((p.probs > 0) | (q.probs > 0)))
    if math.isinf(i_f):
        kprime = 1.0
    else:
        kprime = max(1.0, 1.0 + math.log2(4.0 * spec.c2 * spec.kappa ** spec.alpha / i_f))
    r_value = min(float(k_support), kprime)
    f_nu = spec.evaluate(ref_min_ratio(p, q))
    f_edge = spec.evaluate(1.0 / (1.0 + spec.kappa))
    main = quantizer.MAIN_TERM_COEFF * f_nu / f_edge if math.isfinite(f_nu) else math.inf
    bound = main + quantizer.BLOWUP_COEFF * (spec.c2 / spec.c1) * max(1.0, r_value / out_size)
    return QuantizeResult(channel=channel, gamma=gamma, ratio_achieved=ratio, bound=bound,
                          case_taken=case, r_value=r_value)


def ref_design_hellinger(p, q, out_size):
    base = ref_design(builtin_fdiv("hellinger"), p, q, out_size)
    k_support = int(np.count_nonzero((p.probs > 0) | (q.probs > 0)))
    r_value = min(float(k_support), max(1.0, math.log2(4.0 / hellinger_sq(p, q))))
    bound = quantizer.HELLINGER_CEILING * max(1.0, r_value / out_size)
    return replace(base, bound=bound, r_value=r_value)


# --------------------------------------------------------------------------
# Comparison helpers


def outcome(fn, *args):
    """A byte-exact signature of fn(*args): its value or its error."""
    try:
        value = fn(*args)
    except (ValidationError, DegenerateInputError, DimensionError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return signature(value)


def signature(value):
    if isinstance(value, QuantizeResult):
        assert not value.channel.matrix.flags.writeable
        assert not value.gamma.values.flags.writeable
        return ("design", signature(value.channel), value.gamma.values.tobytes(),
                signature(value.ratio_achieved), signature(value.bound),
                value.case_taken, signature(value.r_value))
    if isinstance(value, Channel):
        return ("channel", value.matrix.shape, value.matrix.tobytes())
    if isinstance(value, Distribution):
        assert not value.probs.flags.writeable
        return ("dist", value.probs.tobytes())
    if isinstance(value, ThresholdGrid):
        return ("grid", tuple(signature(v) for v in value.nus), signature(value.achieved))
    assert isinstance(value, float), type(value)
    return (type(value).__name__, np.float64(value).tobytes())


def random_instance(rng, i):
    """(p, q, D) with zero masses, tied ratios or subnormal masses in turn."""
    k = int(rng.integers(2, 11))
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    kind = i % 4
    if kind == 1:  # ratios 0 and inf, and points outside both supports
        p[rng.integers(0, k)] = 0.0
        q[rng.integers(0, k)] = 0.0
        if rng.random() < 0.3:
            j = rng.integers(0, k)
            p[j] = q[j] = 0.0
    elif kind == 2:  # exact ratio ties from quarter-scaled copies of atoms
        copies = rng.integers(0, k, int(rng.integers(1, 4)))
        p, q = np.concatenate([p, p[copies] / 4.0]), np.concatenate([q, q[copies] / 4.0])
    elif kind == 3:  # subnormal and tiny masses: huge finite ratios
        q[rng.integers(0, k)] = rng.choice([5e-324, 1e-310, 1e-300, 1e-200])
    if p.sum() == 0 or q.sum() == 0:
        p, q = np.ones(k), np.arange(1.0, k + 1.0)
    return Distribution(p / p.sum()), Distribution(q / q.sum()), int(rng.integers(2, 10))


def random_rv(rng, out_size):
    k = int(rng.integers(1, 12))
    beta = float(rng.choice([0.5, 1.0, 2.0]))
    values = np.unique(rng.random(k) * beta)
    if rng.random() < 0.3:
        values = np.concatenate(([0.0], values[values > 0]))
    masses = rng.dirichlet(np.ones(values.size))
    masses[rng.random(values.size) < 0.2] = 0.0
    if masses.sum() == 0:
        masses[-1] = 1.0
    return DiscreteRV(values, masses / masses.sum(), beta)


N_INSTANCES = 300


class TestKernelsMatchValidatingPath:
    # f(nu) overflows for sym_chi_2 on subnormal masses, on both paths alike
    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar power")
    def test_designers(self):
        rng = np.random.default_rng(20261018)
        designed = 0
        for i in range(N_INSTANCES):
            p, q, d = random_instance(rng, i)
            for name in SPECS:
                spec = builtin_fdiv(name)
                want = outcome(ref_design, spec, p, q, d)
                assert outcome(design_fdiv_channel, spec, p, q, d) == want, (i, name)
                designed += want[0] == "design"
            assert outcome(design_hellinger_channel, p, q, d) == \
                outcome(ref_design_hellinger, p, q, d), i
            if p == q:
                continue
            eps = float(rng.uniform(0.05, 0.45)) * total_variation(p, q)
            setup = ContaminationSetup(p, q, eps)

            def ref_robust():
                lfd = huber_lfd(setup)
                return ref_design_hellinger(lfd.p_lfd, lfd.q_lfd, d)

            assert outcome(lambda: design_robust_channel(setup, d)[1]) == outcome(ref_robust), i
        assert designed >= 0.9 * N_INSTANCES * len(SPECS)

    def test_apply_channel_and_fdiv_ratio(self):
        rng = np.random.default_rng(7)
        for i in range(N_INSTANCES):
            p, q, d = random_instance(rng, i)
            m = rng.random((d, p.k)) * (rng.random((d, p.k)) < 0.7)
            m[0, m.sum(axis=0) == 0] = 1.0
            channels = [Channel(m / m.sum(axis=0))]
            if p != q:
                channels.append(design_hellinger_channel(p, q, d).channel)
            for channel in channels:
                for dist in (p, q):
                    assert signature(apply_channel(channel, dist)) == \
                        signature(ref_apply(channel, dist)), i
                for name in SPECS:
                    spec = builtin_fdiv(name)
                    num = ref_fdiv(spec, p, q)
                    assert outcome(fdiv_ratio, spec, p, q, channel) == \
                        outcome(ref_ratio, spec, num, p, q, channel), (i, name)

    def test_reverse_markov_best(self):
        rng = np.random.default_rng(11)
        for i in range(N_INSTANCES):
            d = int(rng.integers(2, 10))
            rv = random_rv(rng, d)
            assert outcome(reverse_markov_best, rv, d) == outcome(ref_best, rv, d), i


# --------------------------------------------------------------------------
# The public boundary still rejects bad input


BETA_RV = DiscreteRV([0.0, 0.5], [0.5, 0.5], 1.0)

BAD_INPUTS = [
    ("Distribution non-finite", lambda: Distribution([math.nan, 1.0]), ValidationError),
    ("Distribution infinite", lambda: Distribution([math.inf, 0.0]), ValidationError),
    ("Distribution negative", lambda: Distribution([-0.1, 1.1]), ValidationError),
    ("Distribution bad sum", lambda: Distribution([0.5, 0.6]), ValidationError),
    ("Distribution bad shape", lambda: Distribution([[0.5, 0.5]]), ValidationError),
    ("Distribution empty", lambda: Distribution([]), ValidationError),
    ("Channel non-finite", lambda: Channel([[math.nan, 1.0], [1.0, 0.0]]), ValidationError),
    ("Channel negative", lambda: Channel([[1.5, 0.0], [-0.5, 1.0]]), ValidationError),
    ("Channel bad sum", lambda: Channel([[0.5, 0.5], [0.4, 0.5]]), ValidationError),
    ("Channel bad shape", lambda: Channel([1.0, 1.0]), ValidationError),
    ("ThresholdSet non-finite", lambda: ThresholdSet([1.0, math.inf]), ValidationError),
    ("ThresholdSet NaN", lambda: ThresholdSet([math.nan]), ValidationError),
    ("ThresholdSet negative", lambda: ThresholdSet([-1.0, 2.0]), ValidationError),
    ("ThresholdSet zero", lambda: ThresholdSet([0.0, 2.0]), ValidationError),
    ("ThresholdSet unsorted", lambda: ThresholdSet([2.0, 1.0]), ValidationError),
    ("ThresholdSet bad shape", lambda: ThresholdSet([[1.0, 2.0]]), ValidationError),
    ("ThresholdSet empty", lambda: ThresholdSet([]), ValidationError),
    ("DiscreteRV non-finite", lambda: DiscreteRV([0.0, math.nan], [0.5, 0.5], 1.0),
     ValidationError),
    ("DiscreteRV negative mass", lambda: DiscreteRV([0.0, 0.5], [1.5, -0.5], 1.0),
     ValidationError),
    ("DiscreteRV bad sum", lambda: DiscreteRV([0.0, 0.5], [0.5, 0.6], 1.0), ValidationError),
    ("DiscreteRV unsorted", lambda: DiscreteRV([0.5, 0.2], [0.5, 0.5], 1.0), ValidationError),
    ("DiscreteRV value at beta", lambda: DiscreteRV([0.0, 1.0], [0.5, 0.5], 1.0),
     ValidationError),
    ("DiscreteRV bad shape", lambda: DiscreteRV([0.0, 0.5], [1.0], 1.0), ValidationError),
    ("DiscreteRV bad beta", lambda: DiscreteRV([0.0], [1.0], math.inf), ValidationError),
    ("apply_channel size", lambda: apply_channel(Channel.identity(2), Distribution([0.2] * 5)),
     DimensionError),
    ("objective short grid", lambda: revmarkov_objective(BETA_RV, [1.0]), ValidationError),
    ("objective unsorted grid", lambda: revmarkov_objective(BETA_RV, [0.6, 0.2, 1.0]),
     ValidationError),
    ("objective negative grid", lambda: revmarkov_objective(BETA_RV, [-0.1, 1.0]),
     ValidationError),
    ("objective grid not ending at beta", lambda: revmarkov_objective(BETA_RV, [0.2, 0.9]),
     ValidationError),
    ("objective non-finite grid", lambda: revmarkov_objective(BETA_RV, [math.nan, 1.0]),
     ValidationError),
    ("objective bad shape", lambda: revmarkov_objective(BETA_RV, [[0.2, 1.0]]), ValidationError),
    ("reverse_markov_best budget", lambda: reverse_markov_best(BETA_RV, 1), ValidationError),
    ("l1 check size", lambda: l1_embedding_bound_check(hadamard_instance(3, 0.5),
                                                       Channel.identity(2)), DimensionError),
] + [
    # the designer validates the spec once instead of every candidate's thresholds
    (f"designer kappa={kappa}", lambda kappa=kappa: design_fdiv_channel(
        replace(builtin_fdiv("hellinger"), kappa=kappa), Distribution([0.5, 0.3, 0.2]),
        Distribution([0.2, 0.3, 0.5]), 3), ValidationError)
    for kappa in (-2.0, -0.5, 0.0, math.inf, math.nan)
] + [
    (f"designer alpha={alpha}", lambda alpha=alpha: design_fdiv_channel(
        replace(builtin_fdiv("hellinger"), alpha=alpha), Distribution([0.5, 0.3, 0.2]),
        Distribution([0.4, 0.3, 0.3]), 3), ValidationError)
    for alpha in (-1.0, 0.0, math.inf, math.nan)
]


@pytest.mark.parametrize("make, error", [(m, e) for _, m, e in BAD_INPUTS],
                         ids=[name for name, _, _ in BAD_INPUTS])
def test_public_boundary_rejects(make, error):
    with pytest.raises(error):
        make()
