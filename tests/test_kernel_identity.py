"""The array kernels behind the public API against the validating path.

The `ref_*` functions below are reference code only: they are the designer,
the threshold-channel oracle, `apply_channel`, `fdiv_ratio` and the
reverse-Markov grids as they were written on the public, validating objects
(a `ThresholdSet`, a `Channel` and two validated `Distribution` images per
candidate, a `DiscreteRV` and a checked grid per objective, one `np.dot` per
objective), the LLR statistic as one numpy row sum per channel group (and
as a plain left-to-right sum, the decision kernel's definition), the
M-ary family statistics, output separations and round robin as one Python
step per pair, per hypothesis and per game, the knockout deciding each game
with that row sum, the JL sketch building and scoring one validated
`Channel` per draw, the push through a channel one law at a time, the
simulator pushing its laws and building its LLR tables once per branch,
and the referee scanning every user's range and building one validated LLR
table per channel. The kernels must give the same floats, the same
arrays and the same errors; `_sorted_unique` is checked against `np.unique`
itself. I_f is the one exception: the reference takes each summand alone, f
on numpy scalars, and the kernel takes f on arrays, whose loops for pow need
not round as the scalar ones do (see SUMMAND_RTOL). The boundary tests check
that every public constructor and entry point still rejects bad input.
"""

import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from commtest import (
    Channel,
    ContaminationSetup,
    DegenerateInputError,
    DimensionError,
    DiscreteRV,
    Distribution,
    FDivergenceSpec,
    HypothesisFamily,
    StochasticFailureError,
    TestRule,
    ThresholdSet,
    ValidationError,
    apply_channel,
    brute_force_threshold_channel,
    builtin_fdiv,
    chi_square_budget,
    core,
    counts_sampler,
    decision,
    design_fdiv_channel,
    design_hellinger_channel,
    design_robust_channel,
    empirical_sample_complexity,
    fdiv_ratio,
    game_sample_size,
    hadamard_instance,
    hellinger_sq,
    huber_lfd,
    identical_channel_design,
    likelihood_ratios,
    lrt_decide,
    mary,
    min_pairwise_tv_after,
    pairwise_indicator_reduction,
    quantizer,
    reverse_markov_best,
    revmarkov_objective,
    robust_decide,
    scheffe_channel,
    simulate_error,
    testing,
    threshold_channel,
    total_variation,
    tournament_adaptive,
    tournament_nonadaptive,
)
from commtest.core import _fdiv_term, _push, _sorted_unique
from commtest.decision import message_llr, prefers_first, trials_prefer_first
from commtest.quantizer import QuantizeResult
from commtest.revmarkov import ThresholdGrid, _best_cuts, _cell_sums

SPECS = ("hellinger", "tv", "sym_kl", "triangular", "sym_chi_1", "sym_chi_1.5", "sym_chi_2")
_EPS = float(np.finfo(float).eps)
# Specs whose generators use only correctly rounded numpy ops (sqrt, abs, square,
# +, -, *, /, ** 1 and ** 0): on arrays and on numpy scalars they give the same
# bytes, so the array summand equals the per-atom reference bit for bit. The
# other specs call log or pow, whose array and scalar loops may round apart; I_f
# then agrees to SUMMAND_RTOL, relative (their summands are non-negative).
EXACT_SPECS = ("hellinger", "tv", "triangular", "sym_chi_1")
SUMMAND_RTOL = 2e-15


def rtol_for(name):
    return 0.0 if name in EXACT_SPECS else SUMMAND_RTOL


# --------------------------------------------------------------------------
# Reference code: the validating path


def ref_apply(channel, dist):
    if channel.in_size != dist.k:
        raise DimensionError("alphabet mismatch")
    out = np.clip(channel.matrix @ dist.probs, 0.0, None)
    return Distribution(out / out.sum())


def ref_fdiv_sum(spec, pa, qa):
    """I_f over two arrays, each term taken on numpy scalars."""
    total = 0.0
    for pi, qi in zip(pa, qa):
        total += _fdiv_term(spec, pi, qi)
    return float(total)


def ref_fdiv(spec, p, q):
    if p.k != q.k:
        raise DimensionError("alphabet mismatch")
    return ref_fdiv_sum(spec, p.probs, q.probs)


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
        raise ValidationError(f"out_size must be at least 2, got {out_size}")


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


def ref_ratio_cuts(p, q):
    ratios = likelihood_ratios(p, q)
    support = (p.probs > 0) | (q.probs > 0)
    finite = np.unique(ratios[support & np.isfinite(ratios)])
    cuts = [float(v) for v in finite[1:]]
    if np.any(np.isinf(ratios[support])):
        top = float(finite[-1])
        if top < sys.float_info.max:
            past = 2.0 * top + 1.0
            cuts.append(past if math.isfinite(past) else math.nextafter(top, math.inf))
    return cuts


def ref_pad_thresholds(levels, out_size):
    levels = sorted(levels)
    return ThresholdSet(levels + [levels[-1]] * (out_size - 1 - len(levels)))


def ref_design(spec, p, q, out_size):
    if out_size < 2:
        raise ValidationError(f"out_size must be at least 2, got {out_size}")
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
    sep = ref_ratio_cuts(p, q)
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
    with np.errstate(over="ignore"):  # f(nu) past the float range reads inf
        f_nu = spec.evaluate(ref_min_ratio(p, q))
    f_edge = spec.evaluate(1.0 / (1.0 + spec.kappa))
    main = quantizer.MAIN_TERM_COEFF * f_nu / f_edge if math.isfinite(f_nu) else math.inf
    bound = main + quantizer.BLOWUP_COEFF * (spec.c2 / spec.c1) * max(1.0, r_value / out_size)
    return QuantizeResult(channel=channel, gamma=gamma, ratio_achieved=ratio, bound=bound,
                          case_taken=case, r_value=r_value)


def ref_oracle(spec, p, q, out_size):
    if out_size < 2:
        raise ValidationError(f"out_size must be at least 2, got {out_size}")
    i_f = ref_fdiv(spec, p, q)
    if i_f <= quantizer._DIVERGENCE_FLOOR:
        raise DegenerateInputError("p and q are (numerically) identical")
    cuts = ref_ratio_cuts(p, q)
    if not cuts:
        raise DegenerateInputError("only one likelihood-ratio class present")
    classes = threshold_channel(p, q, ThresholdSet(cuts)).matrix
    p_cells, q_cells = _cell_sums(classes @ p.probs), _cell_sums(classes @ q.probs)
    n = len(cuts) + 1
    score = np.zeros((n, n + 1))
    for a in range(n):
        for b in range(a + 1, n + 1):
            score[a, b] = _fdiv_term(spec, p_cells[a, b], q_cells[a, b])
    chosen = _best_cuts(score, min(out_size - 1, len(cuts)))
    gamma = ref_pad_thresholds([cuts[c - 1] for c in chosen], out_size)
    channel = threshold_channel(p, q, gamma)
    return QuantizeResult(channel=channel, gamma=gamma,
                          ratio_achieved=ref_ratio(spec, i_f, p, q, channel),
                          bound=math.inf, case_taken="oracle", r_value=math.nan)


def ref_design_hellinger(p, q, out_size):
    base = ref_design(builtin_fdiv("hellinger"), p, q, out_size)
    k_support = int(np.count_nonzero((p.probs > 0) | (q.probs > 0)))
    r_value = min(float(k_support), max(1.0, math.log2(4.0 / hellinger_sq(p, q))))
    bound = quantizer.HELLINGER_CEILING * max(1.0, r_value / out_size)
    return replace(base, bound=bound, r_value=r_value)


def ref_llr_statistic(counts, llr):
    total = 0.0
    with np.errstate(invalid="ignore"):
        for c, lg in zip(counts, llr):
            total = total + np.where(c > 0, c * lg, 0.0).sum(axis=-1)
    return np.where(np.isnan(total), 0.0, total)


def ref_left_to_right(counts, llr):
    """The statistic as the decision kernel defines it: per group, count * LLR
    (0 for an unsent message) added left to right in message order, then the
    group subtotals in group order; NaN where +inf meets -inf."""
    total = 0.0
    with np.errstate(invalid="ignore"):
        for c, lg in zip(counts, llr):
            terms = np.where(c > 0, c * lg, 0.0)
            group = 0.0
            for j in range(terms.shape[-1]):
                group = group + terms[..., j]
            total = total + group
    return np.asarray(total)


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
    if isinstance(value, tuple):
        return tuple(signature(v) for v in value)
    assert isinstance(value, float), type(value)
    return (type(value).__name__, np.float64(value).tobytes())


def close_signature(got, want, rtol):
    """got == want for two `outcome` signatures, but each float only to rtol."""
    if rtol and isinstance(want, tuple) and len(want) == 2 and want[0] in ("float", "float64"):
        a, b = (float(np.frombuffer(v[1])[0]) for v in (got, want))
        return got[0] == want[0] and close_float(a, b, rtol)
    if isinstance(want, tuple) and isinstance(got, tuple) and len(got) == len(want):
        return all(close_signature(g, w, rtol) for g, w in zip(got, want))
    return got == want


def close_float(a, b, rtol):
    """a and b equal in bytes if rtol is 0, else within rtol of b (or both inf or nan)."""
    if not rtol:
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rtol * abs(b)


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
    def test_designers(self):
        rng = np.random.default_rng(20261018)
        designed = 0
        for i in range(N_INSTANCES):
            p, q, d = random_instance(rng, i)
            for name in SPECS:
                spec = builtin_fdiv(name)
                want = outcome(ref_design, spec, p, q, d)
                got = outcome(design_fdiv_channel, spec, p, q, d)
                assert got[:3] + got[5:6] == want[:3] + want[5:6], (i, name)  # channel, gamma, case
                assert close_signature(got, want, rtol_for(name)), (i, name)
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
                    assert close_signature(outcome(fdiv_ratio, spec, p, q, channel),
                                           outcome(ref_ratio, spec, num, p, q, channel),
                                           rtol_for(name)), (i, name)

    def test_oracle(self):
        rng = np.random.default_rng(20261018)
        solved = 0
        for i in range(N_INSTANCES):
            p, q, d = random_instance(rng, i)
            for name in SPECS:
                spec = builtin_fdiv(name)
                want = outcome(ref_oracle, spec, p, q, d)
                got = outcome(brute_force_threshold_channel, spec, p, q, d)
                assert got[:3] + got[5:6] == want[:3] + want[5:6], (i, name)  # channel, gamma, case
                assert close_signature(got, want, rtol_for(name)), (i, name)
                solved += want[0] == "design"
        assert solved >= 0.9 * N_INSTANCES * len(SPECS)

    def test_reverse_markov_best(self):
        rng = np.random.default_rng(11)
        for i in range(N_INSTANCES):
            d = int(rng.integers(2, 10))
            rv = random_rv(rng, d)
            assert outcome(reverse_markov_best, rv, d) == outcome(ref_best, rv, d), i

    def test_revmarkov_objective(self):
        rng = np.random.default_rng(13)
        for i in range(N_INSTANCES):
            d = int(rng.integers(2, 10))
            rv = random_rv(rng, d)
            for _ in range(10):
                # levels anywhere, on atoms or repeated; the last one at beta
                # or inside the tolerance below it
                last = rv.beta - rng.choice([0.0, 0.0, 1e-15, 5e-13])
                levels = rng.random(d - 1) * last
                on_atoms = rng.random(d - 1) < 0.4
                levels[on_atoms] = rng.choice(rv.values, int(on_atoms.sum()))
                levels = np.sort(levels)
                if d > 2 and rng.random() < 0.3:
                    j = int(rng.integers(0, d - 2))
                    levels[j + 1] = levels[j]
                nus = np.append(levels, last)
                want = outcome(ref_objective, rv, nus)
                assert want[0] == "float"
                assert outcome(revmarkov_objective, rv, nus) == want, i
        # the last level sits 1e-13 below beta, under the top atom: that
        # atom's mass lies past the grid and scores nothing
        rv = DiscreteRV([0.2, 1 - 5e-14], [0.5, 0.5], 1.0)
        assert ref_objective(rv, [0.1, 1 - 1e-13]) == 0.05
        assert revmarkov_objective(rv, [0.1, 1 - 1e-13]) == 0.05


# Sizes on each side of numpy's pairwise-sum branches: < 8 terms, 8 to 128,
# and recursive halves above 128.
LLR_SIZES = tuple(range(1, 18)) + (31, 32, 33, 127, 128, 129, 256, 300)
SPECIAL_LLRS = np.array([np.inf, -np.inf, 0.0, -2.5, 1.25, 1e300, -1e300])


def random_llr(rng, size, kind):
    if kind == "normal":  # rounding depends on the summation order
        return rng.standard_normal(size) * 10.0 ** rng.integers(-2, 3, size)
    if kind == "lattice":  # integer sums: exact ties and zero statistics
        return rng.integers(-3, 4, size).astype(float)
    return rng.choice(SPECIAL_LLRS, size)  # +inf meets -inf, both-zero messages


def array_signature(a):
    return type(a).__name__, a.dtype.str, a.shape, a.tobytes()


def decided(stat):
    """The decisions a statistic gives: the first hypothesis unless it is below 0."""
    return np.asarray(~(np.asarray(stat) < 0))


class TestLlrStatistic:
    def test_matches_numpy_row_sums(self):
        rng = np.random.default_rng(90210)
        cases = 0
        for size in LLR_SIZES:
            for trial_shape in ((), (64,), (4, 9)):
                for kind in ("normal", "lattice", "special"):
                    for per_trial in (False, True):  # one LLR table per trial, as in a round robin
                        groups = 1 + cases % 4
                        sizes = [size] + [int(rng.choice(LLR_SIZES)) for _ in range(groups - 1)]
                        tables = [trial_shape if per_trial and (g == 0 or rng.random() < 0.5)
                                  else () for g in range(groups)]
                        llr = [random_llr(rng, t + (d,), kind) for t, d in zip(tables, sizes)]
                        counts = [rng.integers(0, 4, trial_shape + (d,))
                                  * (rng.random(trial_shape + (d,)) < 0.6) for d in sizes]
                        want = ref_llr_statistic(counts, llr)
                        exact = ref_left_to_right(counts, llr)
                        if max(sizes) < 8:  # numpy adds fewer than 8 terms left to right too
                            assert array_signature(np.where(np.isnan(exact), 0.0, exact)) == \
                                array_signature(want), (sizes, trial_shape, kind, per_trial)
                        if trial_shape:
                            got = trials_prefer_first(counts, llr)
                            assert type(got) is np.ndarray
                            for t in np.ndindex(trial_shape):  # each trial decides as a row
                                row = prefers_first([c[t] for c in counts],
                                                    [lg[t] if lg.ndim > 1 else lg for lg in llr])
                                assert row is bool(got[t]), (size, t)
                        else:
                            got = prefers_first(counts, llr)
                            assert type(got) is bool
                        for stat in (want, exact):
                            assert array_signature(np.asarray(got)) == array_signature(
                                decided(stat)), (size, trial_shape, kind, per_trial)
                        cases += 1
        assert cases == len(LLR_SIZES) * 18

    def test_layout_of_counts_does_not_matter(self):
        # the decisions of a C-contiguous array, whatever the layout of counts
        rng = np.random.default_rng(5)
        for size in (3, 9, 129):
            c = rng.integers(0, 5, (200, size))
            llr = [random_llr(rng, size, "normal")]
            want = array_signature(decided(ref_llr_statistic([c], llr)))
            assert array_signature(trials_prefer_first([c], llr)) == want, size
            for view in (np.asfortranarray(c), np.repeat(c, 2, axis=0)[::2]):
                assert array_signature(trials_prefer_first([view], llr)) == want, size

    def test_mismatched_llr_size_raises(self):
        for table in (np.zeros(2), np.zeros(4)):  # shorter and longer than the counts
            with pytest.raises(ValueError):
                trials_prefer_first([np.ones((4, 3), dtype=int)], [table])
            with pytest.raises(ValueError):
                trials_prefer_first([np.ones((4, 3), dtype=int)], [np.zeros((4, table.size))])
            with pytest.raises(ValueError):
                prefers_first([np.ones(3, dtype=int)], [table])

    def test_left_to_right_order_at_eight_outputs(self):
        """A near tie that numpy's eight-way pairwise sum reads as a tie: from
        the left, 1e16 + 0 - 1e16 - 1 is -1, so the second hypothesis wins;
        in pairs, -1e16 - 1 rounds to -1e16 before 1e16 meets it."""
        llr = np.array([1e16, 0.0, -1e16, -1.0, 0.0, 0.0, 0.0, 0.0])
        counts = np.ones(8, dtype=int)
        assert ref_left_to_right([counts], [llr]) == -1.0
        assert prefers_first([counts], [llr]) is False
        # reversed, -1 - 1e16 rounds to -1e16 first: a tie, which goes to P
        assert ref_left_to_right([counts], [llr[::-1]]) == 0.0
        assert prefers_first([counts], [llr[::-1]]) is True
        stacked = np.stack([counts, counts])
        assert trials_prefer_first([stacked], [llr]).tolist() == [False, False]
        assert trials_prefer_first([stacked], [np.stack([llr, llr[::-1]])]).tolist() == \
            [False, True]

    @pytest.mark.parametrize("m", (3, 7, 15))
    @pytest.mark.parametrize("out_size", (8, 12, 16))
    def test_hadamard_games_decide_alike(self, m, out_size):
        """Every game of a Hadamard family, on few samples so that many
        games tie: the round robin's stack, the knockout's row and the
        referee on the game's messages decide it alike, and as the plain
        left-to-right sum does."""
        fam = hadamard_instance(m, 0.4)
        channels, llr = fam._round_robin(out_size)
        ii, jj = mary._pairs(m)
        rng = np.random.default_rng(1000 * m + out_size)
        ties = 0
        for truth in [*fam.dists, fam.base]:
            for n in (4, 9, 40):
                drawn = rng.multinomial(n, truth.probs, size=ii.size)
                counts = (channels @ drawn[:, :, None])[:, :, 0]
                robin = trials_prefer_first([counts], [llr])
                for g, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
                    channel, table = fam._game(i, j, out_size)
                    exact = ref_left_to_right([counts[g]], [table])
                    messages = np.repeat(np.arange(out_size), counts[g].astype(int))
                    referee = lrt_decide(fam.dists[i], fam.dists[j], TestRule([channel]),
                                         messages)
                    assert bool(robin[g]) is prefers_first([counts[g]], [table]) \
                        is (referee == "P") is bool(decided(exact)), (n, i, j)
                    ties += exact == 0
        assert ties > 0


def checked_kernel(monkeypatch):
    """Route the leaf's two decisions, the row one (a bool) and the trial one
    (an array), through a check against both reference statistics; a run
    then gives the reference kernel's report exactly. Returns the list of
    checked calls."""
    calls = []

    def checked(kernel, kind):
        def check(counts, llr):
            counts, llr = list(counts), list(llr)
            got = kernel(counts, llr)
            assert type(got) is kind
            for stat in (ref_llr_statistic(counts, llr), ref_left_to_right(counts, llr)):
                assert array_signature(np.asarray(got)) == array_signature(decided(stat))
            calls.append(len(counts))
            return got
        return check

    monkeypatch.setattr(decision, "prefers_first", checked(decision.prefers_first, bool))
    monkeypatch.setattr(decision, "trials_prefer_first",
                        checked(decision.trials_prefer_first, np.ndarray))
    return calls


def simulation_pair():
    rng = np.random.default_rng(2)
    q = rng.dirichlet(np.full(16, 2.0))
    z = rng.standard_normal(16)
    p = q * (1.0 + 0.3 * z / np.abs(z).max())
    return Distribution(p / p.sum()), Distribution(q)


class TestSimulationMatchesReferenceKernel:
    def test_simulate_error_reports(self, monkeypatch):
        calls = checked_kernel(monkeypatch)
        p, q = simulation_pair()
        for d in (2, 4, 8):
            channels = [design_fdiv_channel(builtin_fdiv(name), p, q, d).channel
                        for name in ("hellinger", "tv", "sym_kl", "triangular")]
            for groups in (1, 4):
                rule = TestRule(channels[:groups])
                for n in (10, 1_000, 100_000):
                    simulate_error(rule, p, q, n, trials=20_000, seed=d * n + groups)
        assert len(calls) == 3 * 2 * 3 * 2

    def test_infinite_llrs_and_samplers(self, monkeypatch):
        calls = checked_kernel(monkeypatch)
        p, q = Distribution([0.4, 0.0, 0.3, 0.3]), Distribution([0.0, 0.4, 0.4, 0.2])
        sampler = Distribution([0.25, 0.25, 0.25, 0.25])
        rule = TestRule([Channel.identity(4), scheffe_channel(p, q)])
        for n in (1, 10, 300):
            simulate_error(rule, p, q, n, trials=5_000, seed=n,
                           p_sampler=sampler, q_sampler=sampler)
        assert len(calls) == 6

    def test_sample_complexity_search(self, monkeypatch):
        calls = checked_kernel(monkeypatch)
        p, q = Distribution([0.7, 0.3]), Distribution([0.4, 0.6])
        rule = TestRule([Channel.identity(2)])
        assert empirical_sample_complexity(lambda n: rule, p, q, trials=4_000, seed=3) > 1
        p, q = simulation_pair()
        rule = TestRule([design_hellinger_channel(p, q, 3).channel, scheffe_channel(p, q)])
        empirical_sample_complexity(lambda n: rule, p, q, trials=4_000, seed=4)
        assert len(calls) > 10


# --------------------------------------------------------------------------
# One push kernel: stacks of laws, and every law pushed once per simulation


def ref_push(matrix, probs):
    """`_push` on one law, as it was written before it took stacks."""
    out = np.clip(matrix @ probs, 0.0, None)
    out = out / out.sum()
    return out / out.sum()


def ref_message_llr(channel, p, q):
    tp, tq = ref_push(channel.matrix, p.probs), ref_push(channel.matrix, q.probs)
    neither = (tp == 0) & (tq == 0)
    with np.errstate(divide="ignore"):
        return np.log(np.where(neither, 1.0, tp)) - np.log(np.where(neither, 1.0, tq))


def ref_simulate_error(rule, p, q, n, trials, seed, p_sampler=None, q_sampler=None):
    """The simulator as it was written: each branch pushes p, q and its
    sampled law through every channel, and builds its own LLR tables."""

    def branch(truth, rng):
        groups = [(c, n_g) for c, n_g in zip(rule.channels, testing._group_sizes(rule, n))
                  if n_g]
        counts = (rng.multinomial(n_g, ref_push(c.matrix, truth.probs), size=trials)
                  for c, n_g in groups)
        return ref_llr_statistic(list(counts),
                                 [ref_message_llr(c, p, q) for c, _ in groups])

    child_p, child_q = np.random.SeedSequence(seed).spawn(2)
    stats_p = branch(p_sampler if p_sampler is not None else p, np.random.default_rng(child_p))
    stats_q = branch(q_sampler if q_sampler is not None else q, np.random.default_rng(child_q))
    err_p = float(np.count_nonzero(stats_p < 0)) / trials
    err_q = float(np.count_nonzero(stats_q >= 0)) / trials
    var = err_p * (1 - err_p) / trials + err_q * (1 - err_q) / trials
    return {"n": n, "trials": trials, "error_p": err_p, "error_q": err_q,
            "error_sum_estimate": err_p + err_q,
            "ci_halfwidth": testing._Z95 * math.sqrt(var), "seed": seed}


def random_push_case(rng, i):
    """(D x k channel matrix, stack of 1-6 laws on k atoms): D 1..12, k 1..80;
    0/1 threshold channels, sub-stochastic sketch-like channels, laws with
    atoms of zero mass under every law and subnormal masses."""
    d, k, rows = int(rng.integers(1, 13)), int(rng.integers(1, 81)), int(rng.integers(1, 7))
    kind = i % 4
    if kind == 0:  # 0/1 threshold channel
        matrix = (np.arange(d)[:, None] == rng.integers(0, d, k)).astype(float)
    else:
        matrix = rng.random((d, k)) * (rng.random((d, k)) < 0.7)
        matrix[0, matrix.sum(axis=0) == 0] = 1.0
        matrix = matrix / matrix.sum(axis=0)
        if kind == 3:  # a slack row dropped: columns sum to less than 1
            matrix = matrix * rng.uniform(0.5, 1.0, k)
    laws = rng.dirichlet(np.full(k, rng.choice([0.3, 1.0, 5.0])), size=rows)
    if kind >= 1 and k > 1:
        laws[:, rng.integers(0, k)] = 0.0  # zero mass under every law
    if kind == 2:
        laws[rng.random(laws.shape) < 0.2] *= 1e-310  # subnormal masses
    laws = laws / laws.sum(axis=1, keepdims=True)
    return matrix, laws


N_PUSH_CASES = 1200


class TestOnePushKernel:
    def test_stacked_rows_match_single_laws(self):
        rng = np.random.default_rng(13)
        subnormal = 0
        for i in range(N_PUSH_CASES):
            matrix, laws = random_push_case(rng, i)
            stacked = _push(matrix, laws)
            assert stacked.shape == (len(laws), len(matrix)), i
            for row, law in zip(stacked, laws):
                assert row.tobytes() == ref_push(matrix, law).tobytes(), i
            assert _push(matrix, laws[0]).tobytes() == ref_push(matrix, laws[0]).tobytes(), i
            subnormal += bool(np.any((laws > 0) & (laws < np.finfo(float).tiny)))
        assert subnormal >= N_PUSH_CASES // 8

    def test_simulator_matches_per_branch_pushes(self):
        rng = np.random.default_rng(1317)
        infinite = samplers = 0
        for i in range(60):
            k = int(rng.integers(2, 9))
            probs = rng.dirichlet(np.ones(k), size=4)
            if i % 3 == 0:  # one-sided atoms: +-inf LLRs
                probs[0, 0] = probs[1, 1] = 0.0
            p, q, p_s, q_s = (Distribution(row / row.sum()) for row in probs)
            channels = [Channel.identity(k), scheffe_channel(p, q)]
            matrix = rng.random((int(rng.integers(2, 5)), k))
            channels.append(Channel(matrix / matrix.sum(axis=0)))
            if p != q:
                channels.append(design_hellinger_channel(p, q, 3).channel)
            rule = TestRule([channels[j] for j in rng.permutation(len(channels))[:i % 4 + 1]])
            n = int(rng.choice([1, 2, 7, 50, 333]))
            sampler_p = p_s if i % 4 in (1, 3) else None
            sampler_q = q_s if i % 4 in (2, 3) else None
            got = simulate_error(rule, p, q, n, trials=1_000, seed=i,
                                 p_sampler=sampler_p, q_sampler=sampler_q)
            want = ref_simulate_error(rule, p, q, n, 1_000, i, sampler_p, sampler_q)
            assert json.dumps(got.to_json()) == json.dumps(want), i
            infinite += any(np.isinf(ref_message_llr(c, p, q)).any() for c in rule.channels)
            samplers += sampler_p is not None and sampler_q is not None
        assert infinite >= 10 and samplers >= 10


# --------------------------------------------------------------------------
# The referee: a range check per channel group, one stack of p and q, and
# the statistic's row path


def ref_lrt_decide(p, q, rule, messages):
    """The referee as it was written: a range scan over every user, then a
    validated LLR table per channel and the reference row sum."""
    msgs = np.asarray(messages)
    if msgs.ndim != 1 or (msgs.size and msgs.dtype.kind not in "iu"):
        raise ValidationError("messages must be a flat sequence of integers")
    msgs = msgs.astype(np.int64, copy=False)
    sizes = np.resize([c.out_size for c in rule.channels], msgs.size)
    bad = np.flatnonzero((msgs < 0) | (msgs >= sizes))
    if bad.size:
        raise ValidationError(f"message {msgs[bad[0]]} out of range for user {bad[0]}")
    k = rule.channels[0].in_size
    for dist in (p, q):
        if dist.k != k:
            raise DimensionError(f"channel expects alphabet size {k}, distribution has {dist.k}")
    g = len(rule.channels)
    counts = [np.bincount(msgs[i::g], minlength=c.out_size) for i, c in enumerate(rule.channels)]
    llr = [ref_message_llr(c, p, q) for c in rule.channels]
    return "P" if ref_llr_statistic(counts, llr) >= 0 else "Q"


def verdict(decide, *args):
    """The referee's decision, or the type and text of its error."""
    try:
        return decide(*args)
    except ValidationError as exc:  # DimensionError included
        return type(exc).__name__, str(exc)


# Round robin over out sizes 5, 2 and 3 on five atoms: a message can be in
# range for one user and out of range for the next.
MIXED_RULE = TestRule([
    Channel.identity(5),
    Channel(np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 1.0]])),
    Channel(np.array([[1.0, 0.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0, 0.5],
                      [0.0, 0.0, 1.0, 1.0, 0.0]])),
])
P5, Q5 = Distribution([0.4, 0.0, 0.2, 0.2, 0.2]), Distribution([0.1, 0.3, 0.2, 0.0, 0.4])
NOT_FLAT = ("ValidationError", "messages must be a flat sequence of integers")


def out_of_range(message, user):
    return "ValidationError", f"message {message} out of range for user {user}"


REFEREE_CASES = [
    ("in range for user 0, not user 1", [4, 4], out_of_range(4, 1)),
    ("in range for user 1, not user 2", [0, 1, 3], out_of_range(3, 2)),
    # group 1 (user 4) is bad too, but user 2 comes first
    ("first bad user in a later group", [0, 0, 3, 0, 2, 0], out_of_range(3, 2)),
    ("bad user after the wrap-around", [4, 1, 2, 5, 0, 0], out_of_range(5, 3)),
    ("negative", [0, -1], out_of_range(-1, 1)),
    ("negative for user 0", [-3, 0, 0], out_of_range(-3, 0)),
    ("far out of range", [0, 0, 0, 10**12], out_of_range(10**12, 3)),
    ("uint64 past int64", [2**63 + 5], out_of_range(5 - 2**63, 0)),
    ("past uint64", [2**64], NOT_FLAT),
    ("bool", [True, False], NOT_FLAT),
    ("float", [0.0, 1.0], NOT_FLAT),
    ("int and float", [0, 1.5], NOT_FLAT),
    ("2-D", [[0, 1], [1, 0]], NOT_FLAT),
    ("scalar", 3, NOT_FLAT),
    ("empty", [], "P"),
    ("one user, +inf", [3], "P"),
    ("one user", [4], "Q"),
    ("+inf meets -inf", [3, 0, 0, 1], "P"),
    ("mixed sizes in range", [4, 1, 2, 2, 0, 1, 0, 1, 0], "P"),
    ("mixed sizes in range, to Q", [4, 1, 1, 2, 0, 1], "Q"),
    # lists and tuples of codes 0..255 are read as bytes; the rest goes
    # through np.asarray, so each row here is decided the same either way
    ("tuple", (4, 1, 1, 2, 0, 1), "Q"),
    ("numpy int64 entries", [np.int64(m) for m in (4, 1, 1, 2, 0, 1)], "Q"),
    ("numpy bool entries", [np.True_, np.False_], NOT_FLAT),
    ("numpy float entries", [np.float64(0.0), np.float64(1.0)], NOT_FLAT),
    ("bool then int", [True, 3], out_of_range(3, 1)),
    ("int then bool", [3, True], "P"),
    ("bytes", b"\x04\x01", NOT_FLAT),
    ("str", "41", NOT_FLAT),
    # a bytearray is a buffer of uint8 to np.asarray, so it is decided
    ("bytearray", bytearray(b"\x04\x01\x01\x02\x00\x01"), "Q"),
    ("255 for a two-output user", [0, 255], out_of_range(255, 1)),
    ("256 on small channels", [256], out_of_range(256, 0)),
]


# Codes either side of the byte boundary: a 300-output channel sends even
# codes from atom 0 and odd ones from atom 1, round robin with a binary one.
WIDE_MATRIX = np.zeros((300, 2))
WIDE_MATRIX[0::2, 0] = WIDE_MATRIX[1::2, 1] = 1 / 150
WIDE_RULE = TestRule([Channel(WIDE_MATRIX), Channel.identity(2)])
P2, Q2 = Distribution([0.9, 0.1]), Distribution([0.1, 0.9])

WIDE_REFEREE_CASES = [
    ("255 on a 300-output channel", [255], "Q"),
    ("256 on a 300-output channel", [256], "P"),
    ("255 and 256 on a 300-output channel", [256, 0, 255, 1, 256], "P"),
    ("255 for a binary user", [254, 255], out_of_range(255, 1)),
    ("300 on a 300-output channel", [299, 0, 300], out_of_range(300, 2)),
]


class TestRefereeMatchesFullScan:
    @pytest.mark.parametrize("messages, want", [case[1:] for case in REFEREE_CASES],
                             ids=[case[0] for case in REFEREE_CASES])
    def test_range_and_type_checks(self, messages, want):
        for given in (messages, np.asarray(messages)):
            assert verdict(lrt_decide, P5, Q5, MIXED_RULE, given) == want
            assert verdict(ref_lrt_decide, P5, Q5, MIXED_RULE, given) == want

    @pytest.mark.parametrize("messages, want", [case[1:] for case in WIDE_REFEREE_CASES],
                             ids=[case[0] for case in WIDE_REFEREE_CASES])
    def test_codes_past_a_byte(self, messages, want):
        for given in (messages, tuple(messages), np.asarray(messages)):
            assert verdict(lrt_decide, P2, Q2, WIDE_RULE, given) == want
            assert verdict(ref_lrt_decide, P2, Q2, WIDE_RULE, given) == want

    def test_range_error_comes_before_the_alphabet_check(self):
        p3 = Distribution([0.2, 0.3, 0.5])
        for p, q, messages in ((p3, Q5, [0, 1]), (P5, p3, [0, 1]), (p3, p3, [])):
            want = ("DimensionError", "channel expects alphabet size 5, distribution has 3")
            assert verdict(lrt_decide, p, q, MIXED_RULE, messages) == want
            assert verdict(lrt_decide, p, q, MIXED_RULE, messages + [9]) == \
                verdict(ref_lrt_decide, p, q, MIXED_RULE, messages + [9]) == \
                out_of_range(9, len(messages))

    def test_decisions_match_reference_kernels(self):
        """Rules of 1-4 groups with D 2-16, on both sides of the statistic's
        8-term switch; zero masses give +-inf LLRs, and uniform messages
        send the impossible ones. The last 300 rules give each channel D
        257-320 with even odds, so codes fall either side of the byte
        boundary."""
        rng = np.random.default_rng(1717)
        wide = narrow = infinite = ties = 0
        past_a_byte = within_a_byte = 0
        seen = set()
        for i in range(1800):
            k = int(rng.integers(2, 25))
            probs = rng.dirichlet(np.full(k, 0.7), size=2)
            probs[rng.random((2, k)) < 0.2] = 0.0
            probs[:, 0] += probs.sum(axis=1) == 0
            p, q = (Distribution(row / row.sum()) for row in probs)
            channels = []
            for _ in range(1 + i % 4):
                d = int(rng.integers(2, 17))
                if i >= 1500 and rng.random() < 0.5:
                    d = int(rng.integers(257, 321))
                if rng.random() < 0.5:  # 0/1 threshold-like channel
                    matrix = (np.arange(d)[:, None] == rng.integers(0, d, k)).astype(float)
                else:
                    matrix = rng.random((d, k)) * (rng.random((d, k)) < 0.6)
                    matrix[0, matrix.sum(axis=0) == 0] = 1.0
                    matrix = matrix / matrix.sum(axis=0)
                channels.append(Channel(matrix))
            rule = TestRule(channels)
            n = int(rng.integers(0, 80))
            truth = (p, q, None)[i % 3]
            if truth is None:  # uniform messages, impossible ones included
                sizes = np.resize([c.out_size for c in channels], n)
                messages = (rng.random(n) * sizes).astype(int).tolist()
            else:
                images = [_push(c.matrix, truth.probs) for c in channels]
                messages = [int(rng.choice(im.size, p=images[u % len(images)]))
                            for u in range(n) for im in [images[u % len(images)]]]
            want = ref_lrt_decide(p, q, rule, messages)
            assert lrt_decide(p, q, rule, messages) == want, i
            assert lrt_decide(p, q, rule, tuple(messages)) == want, i
            assert lrt_decide(p, q, rule, np.array(messages, dtype=int)) == want, i
            if any(c.out_size > 256 for c in channels):
                past_a_byte += max(messages, default=0) > 255
                within_a_byte += max(messages, default=0) <= 255
            seen.add(want)
            wide += any(c.out_size >= 8 for c in channels)
            narrow += any(c.out_size < 8 for c in channels)
            tables = [ref_message_llr(c, p, q) for c in channels]
            infinite += any(np.isinf(t).any() for t in tables)
            ties += n > 0 and ref_llr_statistic(
                [np.bincount(messages[g::len(channels)], minlength=c.out_size)
                 for g, c in enumerate(channels)], tables) == 0
        assert seen == {"P", "Q"}
        assert min(wide, narrow) >= 300 and infinite >= 300 and ties >= 20
        assert min(past_a_byte, within_a_byte) >= 50

    def test_robust_referee(self):
        rng = np.random.default_rng(1718)
        for i in range(60):
            k = int(rng.integers(2, 12))
            p, q = (Distribution(row) for row in rng.dirichlet(np.ones(k), size=2))
            lfd = huber_lfd(ContaminationSetup(p, q, 0.1 * total_variation(p, q)))
            out_size = int(rng.integers(2, 10))
            channel = design_hellinger_channel(lfd.p_lfd, lfd.q_lfd, out_size).channel
            messages = rng.integers(0, channel.out_size, int(rng.integers(1, 200))).tolist()
            assert robust_decide(channel, lfd, messages) == \
                ref_lrt_decide(lfd.p_lfd, lfd.q_lfd, TestRule([channel]), messages), i


# --------------------------------------------------------------------------
# The LLR memo: tables kept per (channel, p, q) object triple


def random_llr_case(rng):
    """(channel, p, q) on 2-12 atoms with D 2-8 and zero masses."""
    k, d = int(rng.integers(2, 13)), int(rng.integers(2, 9))
    probs = rng.dirichlet(np.full(k, 0.7), size=2)
    probs[rng.random((2, k)) < 0.2] = 0.0
    probs[:, 0] += probs.sum(axis=1) == 0
    matrix = rng.random((d, k)) * (rng.random((d, k)) < 0.6)
    matrix[0, matrix.sum(axis=0) == 0] = 1.0
    return (Channel(matrix / matrix.sum(axis=0)),
            *(Distribution(row / row.sum()) for row in probs))


class TestMemoizedTables:
    """`message_llr` keeps its tables per (channel, p, q) object triple."""

    def test_repeated_referee_calls_match_reference(self):
        """One rule and pair asked about many message vectors, as a referee
        is: every call after the first takes its tables from the memo."""
        rng = np.random.default_rng(1719)
        p, q = (Distribution(row) for row in rng.dirichlet(np.ones(5), size=2))
        lfd = huber_lfd(ContaminationSetup(p, q, 0.1 * total_variation(p, q)))
        channel = design_hellinger_channel(lfd.p_lfd, lfd.q_lfd, 3).channel
        robust_rule = TestRule([channel])
        seen = set()
        for i in range(300):
            n = int(rng.integers(0, 60))
            messages = (rng.random(n) * np.resize([5, 2, 3], n)).astype(int).tolist()
            want = ref_lrt_decide(P5, Q5, MIXED_RULE, messages)
            assert lrt_decide(P5, Q5, MIXED_RULE, messages) == want, i
            robust = rng.integers(0, channel.out_size, int(rng.integers(1, 100))).tolist()
            assert robust_decide(channel, lfd, robust) == \
                ref_lrt_decide(lfd.p_lfd, lfd.q_lfd, robust_rule, robust), i
            seen.add(want)
        assert seen == {"P", "Q"}
        for c in MIXED_RULE.channels:
            assert message_llr(c, P5, Q5) is message_llr(c, P5, Q5)
        assert message_llr(channel, lfd.p_lfd, lfd.q_lfd) is \
            message_llr(channel, lfd.p_lfd, lfd.q_lfd)

    def test_equal_content_in_new_objects(self):
        """Fresh objects equal to earlier ones get tables with the
        reference's bytes, while the earlier objects' entries are live."""
        rng = np.random.default_rng(1720)
        cases = [random_llr_case(rng) for _ in range(20)]
        for _ in range(3):
            for i, (channel, p, q) in enumerate(cases):
                twins = (Channel(channel.matrix.copy()), Distribution(p.probs.copy()),
                         Distribution(q.probs.copy()))
                for c, a, b in ((channel, p, q), twins, (channel, q, p)):
                    assert message_llr(c, a, b).tobytes() == ref_message_llr(c, a, b).tobytes(), i

    def test_recycled_ids_never_hit(self):
        """Triples made and dropped one after another, well past the cap:
        CPython hands freed ids to new objects, and no new triple gets an
        old table."""
        rng = np.random.default_rng(1721)
        seen, recycled = set(), 0
        for i in range(5 * decision._MEMO_CAP):
            channel, p, q = random_llr_case(rng)
            ids = {id(channel), id(p), id(q)}
            recycled += bool(ids & seen)
            seen |= ids
            assert message_llr(channel, p, q).tobytes() == \
                ref_message_llr(channel, p, q).tobytes(), i
            del channel, p, q
        assert recycled >= decision._MEMO_CAP


# --------------------------------------------------------------------------
# M-ary layer: one step per pair, per hypothesis and per game


def ref_family_stats(dists):
    min_h, max_h, min_tv = math.inf, 0.0, math.inf
    for a, b in combinations(dists, 2):
        h = math.sqrt(hellinger_sq(a, b))
        tv = total_variation(a, b)
        if tv == 0.0:
            raise DegenerateInputError("family contains duplicate hypotheses")
        min_h, max_h, min_tv = min(min_h, h), max(max_h, h), min(min_tv, tv)
    return min_h, max_h, min_tv


def ref_min_pairwise_tv_after(channel, family):
    images = [apply_channel(channel, d) for d in family.dists]
    return min(total_variation(a, b) for a, b in combinations(images, 2))


def ref_pairwise_indicator_reduction(family):
    pairs = list(combinations(range(family.m), 2))
    rows = np.zeros((len(pairs) + 1, family.k))
    for r, (i, j) in enumerate(pairs):
        rows[r] = (family.dists[i].probs > family.dists[j].probs).astype(float)
    col_sums = rows[:-1].sum(axis=0)
    out = np.zeros_like(rows)
    nonzero = col_sums > 0
    out[:-1, nonzero] = rows[:-1, nonzero] / col_sums[nonzero]
    out[-1, ~nonzero] = 1.0
    return Channel(out)


def ref_tournament_nonadaptive(family, out_size, sampler, seed, constant, designs):
    """The round robin as a transcript dict, one game at a time: draw one
    game's block, count and decide that game before the next one draws.
    `designs` keeps each pair's channel and LLR table across calls."""
    rng = np.random.default_rng(seed)
    n_samples = game_sample_size(family, out_size, constant)
    games, losses = [], np.zeros(family.m, dtype=int)
    for i, j in combinations(range(family.m), 2):
        p, q = family.dists[i], family.dists[j]
        if (p, q, out_size) not in designs:
            channel = design_hellinger_channel(p, q, out_size).channel
            designs[p, q, out_size] = channel, message_llr(channel, p, q)
        channel, llr = designs[p, q, out_size]
        counts = channel.matrix @ sampler(rng, n_samples, 1)[0]
        winner = i if ref_llr_statistic([counts], [llr]) >= 0 else j
        losses[j if winner == i else i] += 1
        games.append({"i": i, "j": j, "samples": n_samples, "winner": winner})
    undefeated = np.flatnonzero(losses == 0)
    if undefeated.size == 1:
        final, ambiguous = int(undefeated[0]), False
    else:
        final = int(undefeated[0]) if undefeated.size else int(np.argmin(losses))
        ambiguous = True
    return {"games": games, "winner": final,
            "total_samples": n_samples * len(games), "ambiguous": ambiguous}


def ref_tournament_adaptive(family, out_size, sampler, seed, constant, designs):
    """The knockout as a transcript dict, one game at a time, each game
    decided by the reference statistic on its count vector and the
    reference LLR table."""
    rng = np.random.default_rng(seed)
    n_samples = game_sample_size(family, out_size, constant)
    games, champion = [], 0
    for j in range(1, family.m):
        p, q = family.dists[champion], family.dists[j]
        if (p, q, out_size) not in designs:
            channel = design_hellinger_channel(p, q, out_size).channel
            designs[p, q, out_size] = channel, ref_message_llr(channel, p, q)
        channel, llr = designs[p, q, out_size]
        counts = channel.matrix @ sampler(rng, n_samples, 1)[0]
        winner = champion if ref_llr_statistic([counts], [llr]) >= 0 else j
        games.append({"i": champion, "j": j, "samples": n_samples, "winner": winner})
        champion = winner
    return {"games": games, "winner": champion,
            "total_samples": n_samples * len(games), "ambiguous": False}


def random_family_dists(rng, i):
    """M in 2..16 hypotheses on k in 2..32 atoms with zero masses; every
    25th family repeats a hypothesis, which both paths must reject."""
    m, k = int(rng.integers(2, 17)), int(rng.integers(2, 33))
    probs = rng.dirichlet(np.full(k, rng.choice([0.3, 1.0, 5.0])), size=m)
    probs[rng.random((m, k)) < 0.25] = 0.0
    probs[probs.sum(axis=1) == 0, 0] = 1.0
    if i % 25 == 0:
        probs[-1] = probs[0]
    return [Distribution(row / row.sum()) for row in probs]


def random_channels(rng, family, i):
    """A stochastic channel with zero entries, the pairwise reduction, a
    JL sketch (sub-stochastic rows plus slack) and, when it fits, the
    identity embedding."""
    d = int(rng.integers(2, 9))
    matrix = rng.random((d, family.k)) * (rng.random((d, family.k)) < 0.7)
    matrix[0, matrix.sum(axis=0) == 0] = 1.0
    channels = [Channel(matrix / matrix.sum(axis=0)), pairwise_indicator_reduction(family)]
    try:
        channels.append(mary.jl_sketch_channel(family, d, seed=i, max_retries=3))
    except StochasticFailureError as exc:
        channels += [exc.best] if exc.best is not None else []
    if family.k <= d:
        channels.append(Channel.identity(family.k, d))
    return channels


def tournament_plans():
    """(family, game constant): Hadamard families at constant 0.05, where
    many games are near ties, and random families."""
    rng = np.random.default_rng(1080)
    plans = [(hadamard_instance(m, eps), 0.05) for m, eps in
             ((2, 0.3), (3, 0.1), (5, 0.05), (7, 0.02), (9, 0.2), (15, 0.1))]
    while len(plans) < 16:
        dists = random_family_dists(rng, len(plans) + 1)
        if outcome(ref_family_stats, dists)[0] != "raised":
            plans.append((HypothesisFamily(dists), float(rng.choice([0.05, 1.0]))))
    return plans


def family_stats(dists):
    fam = HypothesisFamily(dists)
    return fam.min_pairwise_hellinger, fam.max_pairwise_hellinger, fam.min_pairwise_tv


def transcript_signature(transcript):
    return json.dumps(transcript, sort_keys=True)


N_FAMILIES = 330


class TestMaryMatchesPerPairLoops:
    def test_family_statistics_and_output_separation(self):
        rng = np.random.default_rng(2206027)
        families = duplicates = 0
        for i in range(N_FAMILIES):
            dists = random_family_dists(rng, i)
            want = outcome(ref_family_stats, dists)
            assert outcome(family_stats, dists) == want, i
            if want[0] == "raised":
                duplicates += 1
                continue
            fam = HypothesisFamily(dists)
            assert signature(pairwise_indicator_reduction(fam)) == \
                signature(ref_pairwise_indicator_reduction(fam)), i
            for channel in random_channels(rng, fam, i):
                assert signature(min_pairwise_tv_after(channel, fam)) == \
                    signature(ref_min_pairwise_tv_after(channel, fam)), i
            families += 1
        assert families >= 300 and duplicates >= N_FAMILIES // 25

    def test_hadamard_families(self):
        rng = np.random.default_rng(31)
        for m, eps in ((2, 0.5), (3, 0.4), (7, 0.35), (12, 0.3), (15, 0.2), (31, 0.4)):
            fam = hadamard_instance(m, eps)
            assert outcome(family_stats, fam.dists) == outcome(ref_family_stats, fam.dists)
            for d in (2, 3, 5):
                matrix = rng.random((d, fam.k))
                channel = Channel(matrix / matrix.sum(axis=0))
                assert signature(min_pairwise_tv_after(channel, fam)) == \
                    signature(ref_min_pairwise_tv_after(channel, fam))

    def test_round_robin_transcripts(self):
        """Hadamard families at game constant 0.05, where many games are
        near ties, and random families, at several out sizes and truths."""
        games, designs = 0, {}
        for n, (fam, constant) in enumerate(tournament_plans()):
            for d in (2, 3, 5):
                for seed in range(3):
                    sampler = counts_sampler(fam.dists[(seed * 5 + n) % fam.m])
                    got = tournament_nonadaptive(fam, d, sampler, seed=seed, constant=constant)
                    want = ref_tournament_nonadaptive(fam, d, sampler, seed, constant, designs)
                    assert transcript_signature(got.to_json()) == \
                        transcript_signature(want), (n, d, seed)
                    games += len(got.games)
        assert games > 1000

    def test_knockout_transcripts(self):
        """Each knockout game, one count vector, takes the statistic's row
        path; the plans of the round robin test."""
        games, designs = 0, {}
        for n, (fam, constant) in enumerate(tournament_plans()):
            for d in (2, 3, 5, 9):
                for seed in range(3):
                    sampler = counts_sampler(fam.dists[(seed * 5 + n) % fam.m])
                    got = tournament_adaptive(fam, d, sampler, seed=seed, constant=constant)
                    want = ref_tournament_adaptive(fam, d, sampler, seed, constant, designs)
                    assert transcript_signature(got.to_json()) == \
                        transcript_signature(want), (n, d, seed)
                    games += len(got.games)
        assert games > 500

    def test_one_multinomial_block_is_successive_single_draws(self):
        """The numpy identity the batched samplers rest on: a seeded
        `multinomial(n, p, size=g)` is g successive single draws of an
        identically seeded generator, row for row, and leaves it in the
        same state. k 2..32, n 1..10^4 (log-uniform), g 1..64, laws with
        zero atoms, and the corners of those ranges."""
        rng = np.random.default_rng(330)
        cases = [(k, n, g) for k in (2, 32) for n in (1, 10_000) for g in (1, 64)]
        cases += [(int(rng.integers(2, 33)), int(10 ** rng.uniform(0, 4)),
                   int(rng.integers(1, 65))) for _ in range(200)]
        zero_atoms = 0
        for i, (k, n, g) in enumerate(cases):
            law = rng.dirichlet(np.full(k, rng.choice([0.3, 1.0, 5.0])))
            law[rng.random(k) < 0.3] = 0.0
            if not law.any():
                law[0] = 1.0
            law /= law.sum()
            zero_atoms += not law.all()
            block_rng, single_rng = np.random.default_rng(i), np.random.default_rng(i)
            block = block_rng.multinomial(n, law, size=g)
            singles = np.array([single_rng.multinomial(n, law) for _ in range(g)])
            assert block.shape == (g, k) and np.array_equal(block, singles), (k, n, g)
            assert block_rng.bit_generator.state == single_rng.bit_generator.state
        assert zero_atoms >= 100

    def test_every_game_is_drawn_before_any_is_decided(self, monkeypatch):
        """The stream contract behind the batched tournaments: one sampler
        call of (n, games), every game's block in transcript order, before
        the first decision; the one-game-at-a-time references, replaying
        those blocks row by row, give the same transcripts."""
        fam = hadamard_instance(7, 0.35)
        events, drawn = [], []
        draw = counts_sampler(fam.dists[3])

        def recording(rng, n, games):
            events.append(("draw", n, games))
            drawn.append(draw(rng, n, games))
            return drawn[-1]

        def deciding(kernel):
            def decide(counts, llr):
                events.append(("decide",))
                return kernel(counts, llr)
            return decide

        for name in ("prefers_first", "trials_prefer_first"):  # knockout, round robin
            monkeypatch.setattr(decision, name, deciding(getattr(decision, name)))
        n = game_sample_size(fam, 3, 0.05)
        for run, ref, games, decisions in (
                (tournament_nonadaptive, ref_tournament_nonadaptive, 21, 1),
                (tournament_adaptive, ref_tournament_adaptive, 6, 6)):
            events.clear()
            drawn.clear()
            tr = run(fam, 3, recording, seed=4, constant=0.05)
            assert events == [("draw", n, games)] + [("decide",)] * decisions
            assert len(tr.games) == games
            replay = iter(drawn[0])
            want = ref(fam, 3, lambda rng, size, one: next(replay)[None], 4, 0.05, {})
            assert transcript_signature(tr.to_json()) == transcript_signature(want)

    def test_a_sampler_drawing_row_by_row_matches_counts_sampler(self):
        """A custom sampler drawing one multinomial row per game, returned as a
        list of rows, gives the transcripts of `counts_sampler`'s one block."""
        for fam, constant in tournament_plans()[:8]:
            for truth in (0, fam.m - 1):
                law = fam.dists[truth].probs
                rowwise = lambda rng, n, games: [rng.multinomial(n, law) for _ in range(games)]
                for run in (tournament_nonadaptive, tournament_adaptive):
                    for d, seed in ((2, 11), (3, 12)):
                        got = run(fam, d, rowwise, seed=seed, constant=constant)
                        want = run(fam, d, counts_sampler(fam.dists[truth]), seed=seed,
                                   constant=constant)
                        assert got == want, (run.__name__, fam.m, truth, d, seed)


# --------------------------------------------------------------------------
# The JL sketch: one validated Channel per draw


def ref_jl_sketch(family, out_size, seed, floor, max_retries):
    """The sketch loop building a `Channel` and scoring it with
    `min_pairwise_tv_after` for every draw that is a sub-channel."""
    d_prime, k = out_size - 1, family.k
    q2 = mary.JL_NOISE_SCALE * math.sqrt(math.log(k * d_prime))
    q1 = mary.JL_COLUMN_SCALE * d_prime
    rng = np.random.default_rng(seed)
    best, best_score = None, -math.inf
    for _ in range(max_retries):
        g = rng.standard_normal((d_prime, k))
        h = (1.0 + g / q2) / q1
        if not (np.all(h >= 0.0) and np.all(h.sum(axis=0) <= 1.0)):
            continue
        channel = Channel(np.vstack([h, 1.0 - h.sum(axis=0)]))
        score = min_pairwise_tv_after(channel, family)
        if score >= floor:
            return channel, score
        if score > best_score:
            best, best_score = channel, score
    return best, best_score


def ref_jl_sketch_channel(family, out_size, seed, max_retries, accept):
    floor = mary.jl_distance_floor(family, out_size, accept)
    best, best_score = ref_jl_sketch(family, out_size, seed, floor, max_retries)
    if not best_score >= floor:
        raise StochasticFailureError(
            f"no sketch met the distance floor {floor:.3g} in {max_retries} draws",
            best=best, best_score=best_score)
    return best


def ref_identical_channel_design(family, out_size, seed):
    """Both sketches from the reference loop, the reduction and the
    reduced family built afresh."""
    floor = mary.jl_distance_floor
    candidates = [ref_jl_sketch(family, out_size, seed, floor(family, out_size),
                                mary.DEFAULT_JL_RETRIES)]
    reduction = ref_pairwise_indicator_reduction(family)
    reduced = HypothesisFamily([apply_channel(reduction, d) for d in family.dists])
    sketch, _ = ref_jl_sketch(reduced, out_size, seed + 1, floor(reduced, out_size),
                              mary.DEFAULT_JL_RETRIES)
    composed = sketch.compose(reduction)
    candidates.append((composed, ref_min_pairwise_tv_after(composed, family)))
    if family.k <= out_size:
        ident = Channel.identity(family.k, out_size)
        candidates.append((ident, ref_min_pairwise_tv_after(ident, family)))
    return max(candidates, key=lambda cs: cs[1])


def sketch_outcome(fn, *args):
    """The channel's bytes, or the failure's message, best draw and score."""
    try:
        channel = fn(*args)
    except StochasticFailureError as exc:
        return ("failed", str(exc), signature(exc.best) if exc.best is not None else None,
                signature(exc.best_score))
    return signature(channel)


def sketch_families():
    """Hadamard families M 2..15 and random families with zero masses, k up to 32."""
    families = [hadamard_instance(m, eps) for m, eps in
                ((2, 0.5), (3, 0.4), (4, 0.4), (7, 0.35), (8, 0.45), (15, 0.2))]
    rng = np.random.default_rng(2206)
    while len(families) < 12:
        dists = random_family_dists(rng, len(families) + 1)
        if outcome(ref_family_stats, dists)[0] != "raised":
            families.append(HypothesisFamily(dists))
    return families


# (accept, max_retries): the defaults, an unreachable floor, a rarely met
# one, and the single draw `verify mary` scores
SKETCH_SETTINGS = ((mary.DEFAULT_JL_ACCEPT, mary.DEFAULT_JL_RETRIES), (1e6, 5), (0.5, 3),
                   (mary.DEFAULT_JL_ACCEPT, 1))


class TestSketchMatchesChannelLoop:
    def test_sketch_channel(self):
        kinds = set()
        for n, fam in enumerate(sketch_families()):
            for d in range(2, 7):
                for seed in range(8):
                    for accept, retries in SKETCH_SETTINGS:
                        got = sketch_outcome(mary.jl_sketch_channel, fam, d, seed, retries, accept)
                        want = sketch_outcome(ref_jl_sketch_channel, fam, d, seed, retries, accept)
                        assert got == want, (n, d, seed, accept, retries)
                        kinds.add(got[0])
        assert kinds == {"channel", "failed"}

    @pytest.mark.parametrize("floor", [0.0, math.inf, -math.inf, math.nan, "first score"])
    def test_floors_at_the_edges(self, floor):
        """A zero floor, and a floor equal to the first draw's score, take
        the first draw; no draw meets an infinite or a NaN floor, and any
        draw meets -inf."""
        for fam in sketch_families()[::2]:
            for d in (2, 4):
                at = ref_jl_sketch(fam, d, 7, math.inf, 1)[1] if floor == "first score" else floor
                got = mary._jl_sketch(fam, d, 7, at, 6)
                assert signature(got) == signature(ref_jl_sketch(fam, d, 7, at, 6))
                if floor == "first score":
                    assert got[1] == at

    def test_identical_channel_design(self):
        for n, fam in enumerate(sketch_families()):
            for d in range(2, 7):
                for seed in range(4):
                    got = identical_channel_design(fam, d, seed)
                    assert signature(got) == \
                        signature(ref_identical_channel_design(fam, d, seed)), (n, d, seed)


# --------------------------------------------------------------------------
# The numpy.ma-free sorted unique against np.unique

UNIQUE_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.0 ** -1022])


def random_unique_input(rng, i):
    shape = (int(rng.integers(1, 40)),) if i % 2 else tuple(rng.integers(1, 9, 2))
    kind = i % 4
    if kind == 0:  # distinct floats
        return rng.uniform(-1.0, 1.0, shape)
    if kind == 1:  # exact ties
        return rng.integers(-3, 4, shape) / 4.0
    if kind == 2:  # signed zeros, infinities and subnormals among ties
        return rng.choice(UNIQUE_SPECIALS, shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(UNIQUE_SPECIALS, shape),
                    np.ldexp(rng.uniform(0.0, 1.0, shape), -rng.integers(0, 1075, shape)))


class TestSortedUnique:
    def test_matches_np_unique_bytes(self):
        rng = np.random.default_rng(2718)
        cases = [random_unique_input(rng, i) for i in range(400)]
        cases += [np.empty(0), np.array([-0.0, 0.0]), np.array([0.0, -0.0]),
                  np.array([[0.0, -0.0], [-0.0, 0.0]]), np.array([np.inf, np.inf, -np.inf])]
        for i, a in enumerate(cases):
            assert array_signature(_sorted_unique(a)) == array_signature(np.unique(a)), i
        signed = [np.signbit(a[a == 0]) for a in cases if np.any(a == 0)]
        assert sum(s.any() and not s.all() for s in signed) >= 50
        assert sum(np.any((a != 0) & (np.abs(a) < np.finfo(float).tiny)) for a in cases) >= 50


# --------------------------------------------------------------------------
# The public boundary still rejects bad input


BETA_RV = DiscreteRV([0.0, 0.5], [0.5, 0.5], 1.0)
P2, Q2, Q3 = Distribution([0.7, 0.3]), Distribution([0.3, 0.7]), Distribution([0.2, 0.3, 0.5])

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
    ("chi-square budget size", lambda: chi_square_budget(hadamard_instance(3, 0.5),
                                                         Channel.identity(2)), DimensionError),
    ("separation after size", lambda: min_pairwise_tv_after(Channel.identity(2),
                                                            hadamard_instance(3, 0.5)),
     DimensionError),
    ("lrt_decide size", lambda: lrt_decide(P2, Q3, TestRule([Channel.identity(3)]), [0, 2]),
     DimensionError),
    ("robust_decide size", lambda: robust_decide(
        Channel.identity(3), huber_lfd(ContaminationSetup(P2, Q2, 0.05)), [0, 2]),
     DimensionError),
    ("message_llr p size", lambda: message_llr(Channel.identity(3), P2, Q3), DimensionError),
    ("message_llr q size", lambda: message_llr(Channel.identity(3), Q3, P2), DimensionError),
] + [
    # each law of the simulation mismatched in turn: p, q, p_sampler, q_sampler
    (f"simulate_error {name} size", lambda laws=laws: simulate_error(
        TestRule([Channel.identity(3)]), *laws[:2], 10, trials=10,
        p_sampler=laws[2], q_sampler=laws[3]), DimensionError)
    for name, laws in (("p", (P2, Q3, None, None)), ("q", (Q3, P2, None, None)),
                       ("p_sampler", (Q3, Q3, P2, None)), ("q_sampler", (Q3, Q3, None, P2)))
] + [
    # a spec checks its constants when it is built, here inside each row's lambda,
    # so the designer need not check every candidate's thresholds
    (f"designer kappa={kappa}", lambda kappa=kappa: design_fdiv_channel(
        replace(builtin_fdiv("hellinger"), kappa=kappa), Distribution([0.5, 0.3, 0.2]),
        Distribution([0.2, 0.3, 0.5]), 3), ValidationError)
    for kappa in (-2.0, -0.5, 0.0, math.inf, math.nan)
] + [
    (f"designer alpha={alpha}", lambda alpha=alpha: design_fdiv_channel(
        replace(builtin_fdiv("hellinger"), alpha=alpha), Distribution([0.5, 0.3, 0.2]),
        Distribution([0.4, 0.3, 0.3]), 3), ValidationError)
    for alpha in (-1.0, 0.0, math.inf, math.nan)
] + [
    # c1 = 0 divided by zero in the bound, c1 < 0 made it negative and c2 = nan made it nan
    (f"designer {name}={value}", lambda name=name, value=value: design_fdiv_channel(
        replace(builtin_fdiv("hellinger"), **{name: value}), Distribution([0.5, 0.3, 0.2]),
        Distribution([0.4, 0.3, 0.3]), 3), ValidationError)
    for name in ("c1", "c2") for value in (-1.0, 0.0, math.inf, math.nan)
]


@pytest.mark.parametrize("make, error", [(m, e) for _, m, e in BAD_INPUTS],
                         ids=[name for name, _, _ in BAD_INPUTS])
def test_public_boundary_rejects(make, error):
    with pytest.raises(error):
        make()


# --------------------------------------------------------------------------
# I_f summed on arrays against the per-atom numpy-scalar reference


def with_warnings(fn, *args):
    """(fn(*args) as a float, the warnings it emits, each in full)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = float(fn(*args))
    return value, [(w.category, str(w.message)) for w in caught]


def as_the_reference_words_it(caught):
    """`core._fdiv_sum`'s warnings in the reference's words: the kernel adds a
    row in one `np.add.accumulate`, the reference one numpy scalar at a time."""
    return [(category, message.replace(" in accumulate", " in scalar add"))
            for category, message in caught]


TINY = 5e-324
# (spec, p, q): terms near or past the float range, where the array pass hands them on
SUMMAND_CASES = [
    ("sym_chi_1.5", [TINY, 1.0], [0.5, 0.5]),      # subnormal quotient: x^-0.5 near 1e161
    ("sym_chi_2", [TINY, 1.0], [0.5, 0.5]),        # 1 / quotient overflows: inf
    ("sym_chi_2", [1e-310, 0.5], [0.5, 0.5]),
    ("sym_kl", [0.5, 0.5], [1e-200, 1.0]),         # past q sqrt(float max)
    ("sym_kl", [0.5, 0.5], [TINY, 1.0]),           # the quotient itself is inf
    ("sym_chi_1.5", [0.5, 0.5], [1e-200, 1.0]),
    ("sym_chi_2", [0.5, 0.5], [1e-200, 1.0]),      # (p/q)^2 overflows: p f(q/p) instead
    ("sym_chi_2", [0.5, 0.5], [TINY, 1.0]),
    ("hellinger", [TINY, 1.0], [0.5, 0.5]),
    ("hellinger", [0.5, 0.5], [TINY, 1.0]),
    ("tv", [TINY, 0.5], [0.5, TINY]),
    ("tv", [0.5, 0.5], [TINY, 1.0]),
    ("sym_kl", [TINY, 0.5], [0.0, 0.5]),           # a / 0 reads a * slope_at_inf = inf
    ("sym_chi_2", [1.0, 1.0], [1e-308, 1e-308]),   # finite terms, their sum overflows
    ("triangular", [1.0, 1.0], [TINY, 1e-300]),
]


class TestArraySums:
    @pytest.mark.parametrize("name, pa, qa", SUMMAND_CASES)
    def test_matches_per_atom_reference(self, name, pa, qa):
        spec, pa, qa = builtin_fdiv(name), np.array(pa), np.array(qa)
        want, want_warnings = with_warnings(ref_fdiv_sum, spec, pa, qa)
        got, got_warnings = with_warnings(core._fdiv_sum, spec, pa, qa)
        assert close_float(got, want, rtol_for(name))
        assert as_the_reference_words_it(got_warnings) == want_warnings

    def test_random_laws(self):
        rng = np.random.default_rng(27)
        for i in range(N_INSTANCES):
            p, q, _ = random_instance(rng, i)
            for name in SPECS:
                spec = builtin_fdiv(name)
                got, got_warnings = with_warnings(core._fdiv_sum, spec, p.probs, q.probs)
                want, want_warnings = with_warnings(ref_fdiv_sum, spec, p.probs, q.probs)
                assert close_float(got, want, rtol_for(name)), (i, name)
                assert as_the_reference_words_it(got_warnings) == want_warnings, (i, name)


# --------------------------------------------------------------------------
# The stacked candidate scorer against one candidate at a time

DESIGN_SHAPES = (
    (2, 2, "plain"), (4, 3, "zeros"), (5, 2, "plain"), (6, 4, "ties"),
    (12, 3, "plain"), (13, 3, "zeros"), (8, 2, "plain"), (12, 2, "ties"),
    (14, 8, "zeros"), (16, 3, "plain"), (18, 4, "ties"), (20, 4, "plain"),
    (24, 4, "zeros"), (40, 4, "plain"), (64, 8, "ties"),
)


def shape_pair(rng, k, kind):
    """A (p, q) pair of the benchmark's design workload: plain Dirichlet
    draws, zero masses, or quarter-scaled copies of atoms (tied ratios)."""
    if kind == "ties":
        base = k - k // 3
        p, q = rng.dirichlet(np.ones(base)), rng.dirichlet(np.ones(base))
        p, q = np.concatenate([p, p[: k - base] / 4.0]), np.concatenate([q, q[: k - base] / 4.0])
    else:
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        if kind == "zeros":
            q[0], p[1] = 0.0, 0.0
            if k >= 6:
                p[2] = q[2] = 0.0
    return Distribution(p / p.sum()), Distribution(q / q.sum())


def stacked_instances():
    rng = np.random.default_rng(2027)
    for i in range(N_INSTANCES // 2):
        yield random_instance(rng, i)
    for _ in range(4):
        for k, d, kind in DESIGN_SHAPES:
            yield *shape_pair(rng, k, kind), d
    yield *shape_pair(rng, 64, "plain"), 40


def candidate_levels(rng, spec, p, q, out_size):
    """Threshold lists of every kind the designer scores, with repeats."""
    cuts = ref_ratio_cuts(p, q)
    ratios = likelihood_ratios(p, q)
    finite = ratios[np.isfinite(ratios) & (ratios > 0)]
    drawn = sorted(rng.choice(finite, min(out_size - 1, finite.size)).tolist())
    lists = [[1.0 + spec.kappa], [1.0 / (1.0 + spec.kappa)], drawn, [1.0 + spec.kappa],
             cuts[: out_size - 1]]
    return [levels for levels in lists if levels]


class TestStackedScorer:
    def test_each_candidate_matches_one_at_a_time(self):
        rng = np.random.default_rng(5)
        scored = 0
        for p, q, d in stacked_instances():
            for name in ("hellinger", "sym_kl", "sym_chi_1.5"):
                spec = builtin_fdiv(name)
                i_f = ref_fdiv(spec, p, q)
                if i_f <= quantizer._DIVERGENCE_FLOOR:
                    continue
                ratios = likelihood_ratios(p, q)
                lists = candidate_levels(rng, spec, p, q, d)
                scores, channels, levels = quantizer._score_thresholds(
                    spec, i_f, ratios, np.array((p.probs, q.probs)), lists, d)
                assert len(scores) == len(channels) == len(levels) == len(lists)
                for c, score, channel, row in zip(lists, scores, channels, levels):
                    gamma = ref_pad_thresholds(c, d)
                    want = ref_threshold_channel(ratios, gamma)
                    assert row.tobytes() == gamma.values.tobytes()
                    assert channel.tobytes() == want.matrix.tobytes()
                    assert close_signature(signature(score),
                                           signature(ref_ratio(spec, i_f, p, q, want)),
                                           rtol_for(name))
                    (alone,), _, _ = quantizer._score_thresholds(
                        spec, i_f, ratios, np.array((p.probs, q.probs)), [c], d)
                    assert signature(score) == signature(alone)
                    scored += 1
        assert scored > 2000

    def test_winner_is_the_first_of_exact_ties(self):
        """Both splits at 1 +/- kappa and the lossless cut give one channel:
        the first candidate, the split at 1 + kappa, wins."""
        p, q = Distribution([0.9, 0.1]), Distribution([0.1, 0.9])
        for name in SPECS:
            spec = builtin_fdiv(name)
            ratios = likelihood_ratios(p, q)
            lists = [[1.0 + spec.kappa], [1.0 / (1.0 + spec.kappa)], [9.0]]
            scores, channels, _ = quantizer._score_thresholds(
                spec, ref_fdiv(spec, p, q), ratios, np.array((p.probs, q.probs)), lists, 2)
            assert scores[0] == scores[1] == scores[2]
            assert channels[0].tobytes() == channels[2].tobytes()
            res = design_fdiv_channel(spec, p, q, 2)
            assert res.case_taken == "large-ratio"
            assert res.gamma.values.tolist() == [1.0 + spec.kappa]


# --------------------------------------------------------------------------
# The near-one grid, its reverse-Markov kernel and nu against the code they
# replace: classes by np.unique, a DiscreteRV and a ThresholdGrid per grid,
# the top-atom grid from numpy scalars, the doubling blocks stacked by
# hstack/vstack, and nu from the two laws


def stacked_objectives(rv, grids):
    cum = np.concatenate(([0.0], np.cumsum(rv.masses)))
    cells = np.diff(cum[np.searchsorted(rv.values, grids, side="left")], axis=1)
    return (grids[:, None, :-1] @ cells[:, :, None])[:, 0, 0]


def stacked_top_row(rv, out_size):
    scores = rv.values * rv.masses
    order = np.lexsort((rv.values, scores))[::-1]
    chosen = [float(rv.values[i]) for i in order[: out_size - 1] if scores[i] > 0]
    levels = sorted(chosen)
    return levels + [levels[-1]] * (out_size - 1 - len(levels)) + [rv.beta]


def stacked_doubling_rows(rv, out_size):
    positive = rv.values[(rv.values > 0) & (rv.masses > 0)]
    xs = np.unique(np.ldexp(positive[:, None], -np.arange(out_size)))
    step = max(1, 2 ** 16 // out_size)
    for i in range(0, xs.size, step):
        with np.errstate(over="ignore"):
            levels = np.minimum(rv.beta, np.ldexp(xs[i:i + step, None], np.arange(out_size - 1)))
        yield np.hstack((levels, np.full((len(levels), 1), rv.beta)))


def stacked_best(rv, out_size):
    if rv.mean() <= 0:
        raise DegenerateInputError("E[Y] = 0: no grid has positive objective")
    if out_size < 2:
        raise ValidationError(f"out_size must be at least 2, got {out_size}")
    blocks = stacked_doubling_rows(rv, out_size)
    first = np.vstack((stacked_top_row(rv, out_size), next(blocks)))
    achieved, grid = -math.inf, None
    for grids in [first, *blocks]:
        scores = stacked_objectives(rv, grids)
        win = int(np.argmax(scores))
        if scores[win] > achieved:
            achieved, grid = scores[win], grids[win]
    return ThresholdGrid(nus=tuple(grid.tolist()), achieved=float(achieved))


def unique_near_one_grid(spec, ratios, qa, out_size):
    mask = (ratios > 1.0) & (ratios < 1.0 + spec.kappa) & (qa > 0)
    if not mask.any():
        return None
    y_vals, inv = np.unique((ratios[mask] - 1.0) ** spec.alpha, return_inverse=True)
    y_mass = np.bincount(inv, qa[mask])
    rest = max(0.0, 1.0 - y_mass.sum())
    beta = spec.kappa ** spec.alpha
    if rest > 0:
        if y_vals[0] == 0.0:
            y_mass[0] += rest
        else:
            y_vals = np.concatenate(([0.0], y_vals))
            y_mass = np.concatenate(([rest], y_mass))
    if y_vals[-1] >= beta:
        raise ValidationError("values must lie in [0, beta)")
    rv = core._trusted(DiscreteRV, values=y_vals, masses=y_mass / y_mass.sum(), beta=beta)
    grid = stacked_best(rv, out_size)
    return [1.0 + nu ** (1.0 / spec.alpha) for nu in grid.nus[:-1]]


def two_law_min_ratio(p, q):
    pa, qa = p.probs, q.probs
    if np.any((pa > 0) != (qa > 0)):
        return 0.0
    both = pa > 0
    return min(1.0, (np.minimum(pa, qa)[both] / np.maximum(pa, qa)[both]).min())


def grid_outcome(fn, *args):
    """The thresholds fn(*args) returns, each with its type, None, or its error."""
    try:
        levels = fn(*args)
    except (ValidationError, DegenerateInputError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return None if levels is None else tuple(signature(v) for v in levels)


def near_one_pairs():
    """(p, q, D): the seeded instances, the design shapes, D 40 and past 1024."""
    rng = np.random.default_rng(29)
    for i in range(N_INSTANCES):
        yield random_instance(rng, i)
    for k, d, kind in DESIGN_SHAPES:
        yield *shape_pair(rng, k, kind), d
    for d in (40, 1024, 1025, 2000):
        yield *shape_pair(rng, 6, "ties"), d


class TestNearOneKernel:
    def test_grids_match_the_unique_path(self):
        specs = [builtin_fdiv(name) for name in SPECS]
        checked = Counter()
        for i, (p, q, d) in enumerate(near_one_pairs()):
            both = (likelihood_ratios(p, q), q.probs), (likelihood_ratios(q, p), p.probs)
            for spec in specs if d < 1024 else specs[:2]:
                for ratios, qa in both:
                    want = grid_outcome(unique_near_one_grid, spec, ratios, qa, d)
                    assert grid_outcome(quantizer._near_one_grid, spec, ratios, qa, d) == want, \
                        (i, spec.name)
                    checked[want is None] += 1
        assert checked[False] > 2500 and checked[True] > 100

    @pytest.mark.parametrize("ratios, qa, spec", [
        # every delta ** alpha underflows to 0: E[Y] = 0
        ([1.0 + 2 ** -40, 1.5 ** -1, 3.0], [0.5, 0.3, 0.2],
         replace(builtin_fdiv("hellinger"), alpha=40.0)),
        # delta ** alpha rounds up to beta = 1
        ([np.nextafter(2.0, 0.0), 1.5, 0.5], [0.3, 0.3, 0.4],
         replace(builtin_fdiv("hellinger"), alpha=0.1)),
        # all of q's mass in the bucket: no atom at 0, and one at 0 from underflow
        ([1.5, 1.25], [0.5, 0.5], builtin_fdiv("hellinger")),
        ([1.0 + 2 ** -40, 1.5], [0.5, 0.5], replace(builtin_fdiv("hellinger"), alpha=40.0)),
        # tied classes with zero and subnormal masses of q
        ([1.5, 1.5, 1.25, 1.5, 1.25, 0.0], [0.1, 5e-324, 0.2, 0.0, 1e-310, 0.4],
         builtin_fdiv("sym_chi_1.5")),
        # ratios at the bucket's open ends 1 and 1 + kappa, and infinite ones
        ([2.0, 1.0, 1.5, math.inf, 0.5], [0.2, 0.2, 0.2, 0.0, 0.4], builtin_fdiv("hellinger")),
    ], ids=["all underflow", "rounds to beta", "no rest", "rest on underflow", "ties", "ends"])
    def test_edges(self, ratios, qa, spec):
        ratios, qa = np.array(ratios), np.array(qa)
        for d in range(2, 10):
            want = grid_outcome(unique_near_one_grid, spec, ratios, qa, d)
            assert grid_outcome(quantizer._near_one_grid, spec, ratios, qa, d) == want, d

    def test_edge_errors(self):
        spec = replace(builtin_fdiv("hellinger"), alpha=40.0)
        ratios, qa = np.array([1.0 + 2 ** -40, 3.0]), np.array([0.5, 0.5])
        assert grid_outcome(quantizer._near_one_grid, spec, ratios, qa, 3) == \
            ("raised", "DegenerateInputError", "E[Y] = 0: no grid has positive objective")
        spec = replace(builtin_fdiv("hellinger"), alpha=0.1)
        ratios, qa = np.array([np.nextafter(2.0, 0.0), 0.5]), np.array([0.5, 0.5])
        assert grid_outcome(quantizer._near_one_grid, spec, ratios, qa, 3) == \
            ("raised", "ValidationError", "values must lie in [0, beta)")

    def test_reverse_markov_best_matches_the_stacked_path(self):
        rng = np.random.default_rng(1029)
        sizes = [*range(2, 10)] * 30 + [40] * 20 + [1024, 1025, 2000] * 2
        for i, d in enumerate(sizes):
            rv = random_rv(rng, d)
            assert outcome(reverse_markov_best, rv, d) == outcome(stacked_best, rv, d), (i, d)
        for values, masses, beta in (([0.0, 5e-324, 1e-310, 0.3], [0.1, 0.2, 0.3, 0.4], 1.0),
                                     ([1e-300, 0.5, 1e300], [0.2, 0.3, 0.5], 1.7e308),
                                     ([0.0, 0.5], [1.0, 0.0], 1.0),
                                     ([0.25, 0.5, 0.75], [0.5, 0.25, 0.25], 1.0)):
            rv = DiscreteRV(values, masses, beta)
            for d in (1, 2, 3, 9, 1025):
                assert outcome(reverse_markov_best, rv, d) == outcome(stacked_best, rv, d), d

    def test_min_ratio_matches_the_two_law_quotient(self):
        compared = 0
        for i, (p, q, _) in enumerate(near_one_pairs()):
            support = (p.probs > 0) | (q.probs > 0)
            for a, b in ((p, q), (q, p)):
                got = quantizer._min_ratio(likelihood_ratios(a, b), likelihood_ratios(b, a),
                                           support)
                want = two_law_min_ratio(a, b)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), i
                assert type(got) is type(want) or got == want == 0.0, i
                for name in SPECS:  # the bound reads f(nu) alone
                    spec = builtin_fdiv(name)
                    with np.errstate(over="ignore"):
                        assert signature(spec.evaluate(got)) == \
                            signature(spec.evaluate(want)), (i, name)
                compared += 1
        assert compared == 2 * (N_INSTANCES + len(DESIGN_SHAPES) + 4)


# --------------------------------------------------------------------------
# The array summand, term by term, against `_fdiv_term` one atom at a time


def looped_fdiv_terms(spec, pa, qa):
    """The summands one atom at a time, on numpy scalars: the reference."""
    return [_fdiv_term(spec, pi, qi) for pi, qi in zip(pa, qa)]


def terms_outcome(fn, spec, pa, qa):
    """(the terms as floats, the warnings in full), or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            terms = [float(t) for t in fn(spec, pa, qa)]
        except ValidationError as exc:
            terms = ("raised", type(exc).__name__, str(exc))
    return terms, [(w.category, str(w.message)) for w in caught]


def terms_agree(got, want, rtol):
    """Equal outcomes of `terms_outcome`, each term to rtol."""
    if "raised" in (got[0][0], want[0][0]):
        return got == want
    return (len(got[0]) == len(want[0]) and got[1] == want[1]
            and all(close_float(a, b, rtol) for a, b in zip(got[0], want[0])))


def user_spec(name, f, at_zero=1.0, slope_at_inf=1.0):
    return FDivergenceSpec(name=name, f=f, kappa=1.0, c1=0.5, c2=1.0, alpha=2.0,
                           at_zero=at_zero, slope_at_inf=slope_at_inf)


USER_SPECS = [
    user_spec("power", lambda x: (x - 1.0) ** 2),
    user_spec("int", lambda x: (x > 1.0) * 3, at_zero=2, slope_at_inf=3),
    user_spec("overflow", lambda x: np.exp(x) - math.e),
    user_spec("zero division", lambda x: (x - 1.0) ** 2 / (x - 1.0), at_zero=-1.0),
    user_spec("numpy at zero", lambda x: np.abs(x - 1.0), at_zero=np.float64(1.0),
              slope_at_inf=np.float64(1.0)),
    user_spec("vectorized", np.vectorize(lambda x: math.fabs(x - 1.0), otypes=[float])),
    # math.log raises ValueError at 0 and below: f must see only finite positive quotients
    user_spec("vectorized log", np.vectorize(lambda x: x * math.log(x) - x + 1.0, otypes=[float]),
              slope_at_inf=math.inf),
]
SUMMAND_EDGES = [
    ([-0.0, 1.0], [0.5, 0.5]),
    ([0.5, 0.5], [-0.0, 1.0]),
    ([-0.0, 1.0], [-0.0, 1.0]),
    ([1.0, 1.0], [1.0, 1.0]),                    # x = 1 exactly
    ([800.0, 1e-3], [1.0, 1.0]),                 # exp(800) raises on floats and on numpy
    ([1e300, 1.0], [1e-10, 1.0]),                # numpy squares overflow
    ([TINY, 1.0], [2.0, 1.0]),                   # the quotient underflows to 0
    ([math.inf, 1.0], [math.inf, 1.0]),          # inf / inf
    ([math.inf, 1.0], [1.0, 1.0]),
    ([math.nan, 1.0], [1.0, 1.0]),
    ([-0.5, 1.5], [0.5, 0.5]),                   # a negative quotient: f is not defined
] + [(pa, qa) for _, pa, qa in SUMMAND_CASES]


def test_a_scalar_only_generator_is_rejected_when_the_spec_is_built():
    with pytest.raises(ValidationError, match="np.vectorize"):
        user_spec("scalar only", math.exp)
    spec = user_spec("vectorized exp", np.vectorize(math.exp, otypes=[float]))
    assert spec.evaluate(1.0) == math.e


class TestArrayTerms:
    def test_builtin_and_user_specs_on_edges(self):
        specs = [builtin_fdiv(name) for name in SPECS] + USER_SPECS
        raised = warned = 0
        for spec in specs:
            for pa, qa in SUMMAND_EDGES:
                pa, qa = np.array(pa), np.array(qa)
                want = terms_outcome(looped_fdiv_terms, spec, pa, qa)
                got = terms_outcome(core._fdiv_terms, spec, pa, qa)
                assert terms_agree(got, want, rtol_for(spec.name)), (spec.name, pa, qa)
                raised += want[0][0] == "raised"
                warned += bool(want[1])
        assert raised >= 10 and warned >= 20

    @pytest.mark.parametrize("name, taken", [  # 0 f(0/0) = 0 is set in the pass
        ("hellinger", [(0.5, 0.0)]),
        ("sym_kl", [(0.5, 0.0), (0.0, 0.25)]),  # and f(0) = inf
    ])
    def test_only_non_finite_entries_are_taken_again(self, monkeypatch, name, taken):
        calls = []
        monkeypatch.setattr(core, "_fdiv_term",
                            lambda spec, pi, qi: calls.append((type(pi), pi, qi)) or 0.0)
        core._fdiv_terms(builtin_fdiv(name), np.array([0.2, 0.3, 0.5, 0.0, 0.0]),
                         np.array([0.5, 0.25, 0.0, 0.25, 0.0]))
        assert calls == [(np.float64, pi, qi) for pi, qi in taken]

    def test_random_laws_with_signed_zeros(self):
        rng = np.random.default_rng(2929)
        specs = [builtin_fdiv(name) for name in SPECS] + USER_SPECS
        for i in range(N_INSTANCES):
            p, q, _ = random_instance(rng, i)
            pa, qa = p.probs.copy(), q.probs.copy()
            pa[pa == 0.0], qa[qa == 0.0] = -0.0, -0.0
            for spec in specs:
                for a, b in ((pa, qa), (qa, pa)):
                    assert terms_agree(terms_outcome(core._fdiv_terms, spec, a, b),
                                       terms_outcome(looped_fdiv_terms, spec, a, b),
                                       rtol_for(spec.name)), (i, spec.name)


def stacked_rows(rng, k, n):
    """n laws on k atoms with zero and signed-zero masses, a/0, subnormal and
    tiny masses (huge finite quotients), and exact copies of one another."""
    rows = rng.dirichlet(np.ones(k), size=n)
    for row in rows:
        kind = int(rng.integers(0, 5))
        if kind == 1:
            row[rng.integers(0, k)] = rng.choice([0.0, -0.0])
        elif kind == 2:
            row[rng.integers(0, k)] = rng.choice([TINY, 1e-310, 1e-300, 1e-200])
    rows[rng.random(n) < 0.1] = rows[0]
    return rows


class TestStackedRows:
    """An (n, k) stack through `_fdiv_sum` gives each row the bytes it gets alone."""

    @staticmethod
    def assert_rows_alone(spec, pa, qa):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stacked = np.array(core._fdiv_sum(spec, pa, qa))
            alone = [core._fdiv_sum(spec, a, b) for a, b in zip(pa.reshape(-1, pa.shape[-1]),
                                                                qa.reshape(-1, qa.shape[-1]))]
        assert stacked.shape == pa.shape[:-1]
        assert all(type(s) is float for s in alone)
        assert stacked.tobytes() == np.array(alone).tobytes(), spec.name

    def test_a_row_of_negative_zeros_sums_to_zero(self):
        spec = user_spec("signed zero", lambda x: (x - 1.0) * 0.0)  # -0.0 below x = 1
        pa, qa = np.array([[0.25, 0.75], [0.5, 0.5]]), np.array([[0.5, 1.0], [0.5, 0.5]])
        assert np.signbit(core._fdiv_terms(spec, pa, qa)[0]).all()
        sums = core._fdiv_sum(spec, pa, qa) + [core._fdiv_sum(spec, a, b) for a, b in zip(pa, qa)]
        assert [np.float64(s).tobytes() for s in sums] == [np.float64(0.0).tobytes()] * 4
        assert sums[:2] == [ref_fdiv_sum(spec, a, b) for a, b in zip(pa, qa)]

    def test_edge_rows(self):
        rows = [(pa, qa) for pa, qa in SUMMAND_EDGES if not (np.array(pa) < 0).any()]
        pa, qa = np.array(rows).transpose(1, 0, 2)
        assert {-0.0, math.inf}.issubset(pa.ravel().tolist()) and np.isnan(pa).any()
        for spec in [builtin_fdiv(name) for name in SPECS] + USER_SPECS:
            self.assert_rows_alone(spec, pa, qa)
            self.assert_rows_alone(spec, qa, pa)

    def test_random_stacks(self):
        rng = np.random.default_rng(34)
        for k in (2, 3, 5, 13, 64):
            pa, qa = stacked_rows(rng, k, 24), stacked_rows(rng, k, 24)
            for spec in [builtin_fdiv(name) for name in SPECS] + USER_SPECS:
                self.assert_rows_alone(spec, pa, qa)
                self.assert_rows_alone(spec, pa.reshape(4, 6, k), qa.reshape(4, 6, k))
