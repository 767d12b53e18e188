"""The array kernels behind the public API against the validating path.

The `ref_*` functions below are reference code only: they are the designer,
the threshold-channel oracle, `apply_channel`, `fdiv_ratio` and the
reverse-Markov grids as they were written on the public, validating objects
(a `ThresholdSet`, a `Channel` and two validated `Distribution` images per
candidate, a `DiscreteRV` and a checked grid per objective, one `np.dot` per
objective), the LLR statistic as one numpy row sum per channel group, the
M-ary family statistics, output separations and round robin as one Python
step per pair, per hypothesis and per game, the knockout deciding each game
with that row sum, the push through a channel one law at a time, the
simulator pushing its laws and building its LLR tables once per branch,
and the referee scanning every user's range and building one validated LLR
table per channel. The kernels must give the same floats, the same
arrays and the same errors; `_sorted_unique` is checked against `np.unique`
itself. The boundary tests check
that every public constructor and entry point still rejects bad input.
"""

import json
import math
import sys
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
    HypothesisFamily,
    StochasticFailureError,
    TestRule,
    ThresholdSet,
    ValidationError,
    apply_channel,
    brute_force_threshold_channel,
    builtin_fdiv,
    chi_square_budget,
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
from commtest.decision import llr_statistic, message_llr, trial_statistics
from commtest.quantizer import QuantizeResult
from commtest.revmarkov import ThresholdGrid, _best_cuts, _cell_sums

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
        raise ValidationError("out_size must be at least 2")
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

    def test_oracle(self):
        rng = np.random.default_rng(20261018)
        solved = 0
        for i in range(N_INSTANCES):
            p, q, d = random_instance(rng, i)
            for name in SPECS:
                spec = builtin_fdiv(name)
                want = outcome(ref_oracle, spec, p, q, d)
                assert outcome(brute_force_threshold_channel, spec, p, q, d) == want, (i, name)
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
                        if trial_shape:
                            got = trial_statistics(counts, llr)
                            for t in np.ndindex(trial_shape):  # each trial is a row statistic
                                row = llr_statistic([c[t] for c in counts],
                                                    [lg[t] if lg.ndim > 1 else lg for lg in llr])
                                assert np.float64(row).tobytes() == got[t].tobytes(), (size, t)
                        else:
                            got = llr_statistic(counts, llr)
                            assert type(got) is float
                        assert array_signature(np.asarray(got)) == \
                            array_signature(want), (size, trial_shape, kind, per_trial)
                        cases += 1
        assert cases == len(LLR_SIZES) * 18

    def test_layout_of_counts_does_not_matter(self):
        # the row sums of a C-contiguous array, whatever the layout of counts
        rng = np.random.default_rng(5)
        for size in (3, 9, 129):
            c = rng.integers(0, 5, (200, size))
            llr = [random_llr(rng, size, "normal")]
            want = array_signature(ref_llr_statistic([c], llr))
            for view in (np.asfortranarray(c), np.repeat(c, 2, axis=0)[::2]):
                assert array_signature(trial_statistics([view], llr)) == want, size

    def test_mismatched_llr_size_raises(self):
        with pytest.raises(ValueError):
            trial_statistics([np.ones((4, 3), dtype=int)], [np.zeros(2)])
        with pytest.raises(ValueError):
            llr_statistic([np.ones(3, dtype=int)], [np.zeros(2)])


def checked_kernel(monkeypatch):
    """Route the leaf's two statistics, the row one (a float) and the trial
    one (an array), through a check against the reference; a run then gives
    the reference kernel's report exactly. Returns the list of checked calls."""
    calls = []

    def checked(kernel, kind):
        def check(counts, llr):
            counts, llr = list(counts), list(llr)
            got = kernel(counts, llr)
            assert type(got) is kind
            assert array_signature(np.asarray(got)) == \
                array_signature(ref_llr_statistic(counts, llr))
            calls.append(len(counts))
            return got
        return check

    monkeypatch.setattr(decision, "llr_statistic", checked(decision.llr_statistic, float))
    monkeypatch.setattr(decision, "trial_statistics",
                        checked(decision.trial_statistics, np.ndarray))
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
        return trial_statistics(counts, [ref_message_llr(c, p, q) for c, _ in groups])

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
    """The round robin as a transcript dict, one game at a time: draw,
    count and decide each game before the next one draws. `designs` keeps
    each pair's channel and LLR table across calls."""
    rng = np.random.default_rng(seed)
    n_samples = game_sample_size(family, out_size, constant)
    games, losses = [], np.zeros(family.m, dtype=int)
    for i, j in combinations(range(family.m), 2):
        p, q = family.dists[i], family.dists[j]
        if (p, q, out_size) not in designs:
            channel = design_hellinger_channel(p, q, out_size).channel
            designs[p, q, out_size] = channel, message_llr(channel, p, q)
        channel, llr = designs[p, q, out_size]
        counts = channel.matrix @ sampler(rng, n_samples)
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
    """The knockout as a transcript dict, each game decided by the
    reference statistic on its count vector and the reference LLR table."""
    rng = np.random.default_rng(seed)
    n_samples = game_sample_size(family, out_size, constant)
    games, champion = [], 0
    for j in range(1, family.m):
        p, q = family.dists[champion], family.dists[j]
        if (p, q, out_size) not in designs:
            channel = design_hellinger_channel(p, q, out_size).channel
            designs[p, q, out_size] = channel, ref_message_llr(channel, p, q)
        channel, llr = designs[p, q, out_size]
        counts = channel.matrix @ sampler(rng, n_samples)
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

    def test_every_game_is_drawn_before_any_is_decided(self, monkeypatch):
        """The stream contract behind the batched round robin: one sampler
        call per game, in transcript order, each of the game's sample size,
        all before the first decision; the knockout alternates."""
        fam = hadamard_instance(7, 0.35)
        events, drawn = [], []
        draw = counts_sampler(fam.dists[3])

        def recording(rng, n):
            events.append(("draw", n))
            drawn.append(draw(rng, n))
            return drawn[-1]

        def deciding(kernel):
            def decide(counts, llr):
                events.append(("decide",))
                return kernel(counts, llr)
            return decide

        for name in ("llr_statistic", "trial_statistics"):  # knockout, round robin
            monkeypatch.setattr(decision, name, deciding(getattr(decision, name)))
        n = game_sample_size(fam, 3, 0.05)
        tr = tournament_nonadaptive(fam, 3, recording, seed=4, constant=0.05)
        assert events == [("draw", n)] * len(tr.games) + [("decide",)]
        replay = iter(drawn)
        want = ref_tournament_nonadaptive(fam, 3, lambda rng, size: next(replay), 4, 0.05, {})
        assert transcript_signature(tr.to_json()) == transcript_signature(want)

        events.clear()
        tr = tournament_adaptive(fam, 3, recording, seed=4, constant=0.05)
        assert events == [("draw", n), ("decide",)] * len(tr.games)


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
