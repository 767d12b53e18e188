"""Seeded verification suites for the package's structural guarantees.

Each suite returns a list of CheckResult records (name, pass/fail, measured
value, slack detail) and is deterministic given its seed. The CLI `verify`
command and the acceptance tests drive these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import mary, quantizer, revmarkov, robust, testing
from .core import (
    Channel,
    Distribution,
    _fdiv_sum,
    _freeze,
    _push,
    _sorted_unique,
    apply_channel,
    builtin_fdiv,
    f_divergence,
    hellinger_affinity,
    hellinger_sq,
    likelihood_ratios,
    total_variation,
)
from .errors import DegenerateInputError, InfeasibleContaminationError, ValidationError


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; `passed` is a Python bool, even from a numpy
    comparison, and `detail` a read-only copy, left out of the hash."""

    name: str
    passed: bool
    value: float
    detail: MappingProxyType = field(default_factory=dict, hash=False)

    def __post_init__(self):
        _freeze(self, passed=bool(self.passed), detail=MappingProxyType(dict(self.detail)))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": float(self.value),
            "detail": dict(sorted(self.detail.items())),
        }


def _random_dist(rng: np.random.Generator, k: int, zero_prob: float = 0.0) -> Distribution:
    a = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 2.0))
    if zero_prob and rng.random() < zero_prob:
        a[rng.integers(0, k)] = 0.0
        a = a / a.sum()
    return Distribution(a)


def _random_channel(rng: np.random.Generator, k: int, d: int) -> Channel:
    m = rng.random((d, k)) + 1e-3
    return Channel(m / m.sum(axis=0))


# --------------------------------------------------------------------------


def facts_suite(seed: int = 0, pairs: int = 1000, k_max: int = 32,
                grid_points: int = 1000) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    specs = [builtin_fdiv(n) for n in
             ("hellinger", "tv", "sym_kl", "triangular", "sym_chi_1.5")]

    # Fact family on random pairs: TV/Hellinger sandwich, tensorization,
    # data processing. Signed margins start at -inf, so each reports its slack.
    worst = {"sandwich": -math.inf, "tensor": 0.0, "dpi": -math.inf}
    for _ in range(pairs):
        k = int(rng.integers(2, k_max + 1))
        p = _random_dist(rng, k, zero_prob=0.2)
        q = _random_dist(rng, k, zero_prob=0.2)
        tv, h2 = total_variation(p, q), hellinger_sq(p, q)
        worst["sandwich"] = max(worst["sandwich"], tv * tv - h2, h2 - 2.0 * tv)

        n_fac = int(rng.integers(2, 4))
        factors = [(p, q)] + [
            (_random_dist(rng, k, 0.2), _random_dist(rng, k, 0.2))
            for _ in range(n_fac - 1)
        ]
        prod_p = factors[0][0].probs
        prod_q = factors[0][1].probs
        for a, b in factors[1:]:
            prod_p = np.kron(prod_p, a.probs)
            prod_q = np.kron(prod_q, b.probs)
        affin = math.prod(hellinger_affinity(a, b) for a, b in factors)
        worst["tensor"] = max(worst["tensor"], abs(
            hellinger_affinity(Distribution(prod_p), Distribution(prod_q)) - affin))

        t = _random_channel(rng, k, int(rng.integers(2, k + 1)))
        tp, tq = _push(t.matrix, np.stack([p.probs, q.probs]))
        for spec in specs:
            num = f_divergence(spec, p, q)
            if math.isinf(num):
                continue
            worst["dpi"] = max(worst["dpi"], _fdiv_sum(spec, tp, tq) - num)
    for name in ("sandwich", "tensor", "dpi"):
        results.append(CheckResult(f"fact_{name}", worst[name] <= 1e-10, worst[name]))

    # Bernoulli Hellinger sandwich.
    worst_b = -math.inf
    for _ in range(pairs):
        a, b = np.sort(rng.uniform(0.0, 0.5, 2))
        dh = math.sqrt(hellinger_sq(Distribution([a, 1 - a]), Distribution([b, 1 - b])))
        gap = math.sqrt(b) - math.sqrt(a)
        worst_b = max(worst_b, gap - dh, dh - math.sqrt(2.0) * gap)
    results.append(CheckResult("bernoulli_sandwich", worst_b <= 1e-10, worst_b))

    # Generator constants on a dense grid, plus symmetry and f(1) = 0.
    for spec in specs + [builtin_fdiv("sym_chi_1"), builtin_fdiv("sym_chi_2")]:
        xs = np.linspace(0.0, spec.kappa, grid_points)
        worst_g = abs(spec.evaluate(1.0))
        for x in xs:
            fx = spec.evaluate(1.0 + x)
            mono = x ** spec.alpha
            worst_g = max(worst_g, spec.c1 * mono - fx, fx - spec.c2 * mono)
        for _ in range(200):
            x, y = rng.uniform(0.01, 5.0, 2)
            lhs, rhs = x * spec.evaluate(y / x), y * spec.evaluate(x / y)
            worst_g = max(worst_g, abs(lhs - rhs) / max(1.0, abs(lhs)))
        results.append(
            CheckResult(f"generator_constants_{spec.name}", worst_g <= 1e-10, worst_g)
        )
    return results


# --------------------------------------------------------------------------


def _random_rv(rng: np.random.Generator, k_max: int = 12) -> revmarkov.DiscreteRV:
    k = int(rng.integers(1, k_max + 1))
    vals = _sorted_unique(rng.uniform(0.0, 1.0, k))
    masses = rng.dirichlet(np.ones(vals.size))
    return revmarkov.DiscreteRV(vals, masses, 1.0)


def reverse_markov_suite(seed: int = 0, n_rvs: int = 500) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_guar = math.inf   # min of achieved - guarantee
    worst_dom = math.inf    # min of brute - best
    worst_eq = 0.0          # max |best - brute| when D-1 >= k
    rvs = [_random_rv(rng) for _ in range(n_rvs)]
    # Ten flat laws on 128-256 atoms: there the top-atom grid falls below the
    # floor at D = 2, and only the doubling grid meets it.
    for _ in range(10):
        vals = _sorted_unique(rng.uniform(0.0, 1.0, int(rng.integers(128, 257))))
        rvs.append(revmarkov.DiscreteRV(vals, np.full(vals.size, 1.0 / vals.size), 1.0))
    for rv in rvs:
        if rv.mean() <= 0:
            continue
        for d in (2, 4, 8):
            best = revmarkov.reverse_markov_best(rv, d)
            floor = revmarkov.guarantee(rv, d)
            brute = revmarkov.brute_force_revmarkov(rv, d)
            worst_guar = min(worst_guar, best.achieved - floor)
            worst_dom = min(worst_dom, brute.achieved - best.achieved)
            if d - 1 >= rv.support_size():
                worst_eq = max(worst_eq, abs(best.achieved - brute.achieved))
    return [
        CheckResult("guarantee_floor", worst_guar >= -1e-15, worst_guar),
        CheckResult("oracle_dominance", worst_dom >= -1e-12, worst_dom),
        CheckResult("exact_when_budget_large", worst_eq <= 1e-12, worst_eq),
    ]


def tightness_suite(seed: int = 0,
                    rhos: tuple[float, ...] = (1e-3, 1e-4, 1e-5)) -> list[CheckResult]:
    results: list[CheckResult] = []
    oracle_ratios: dict[float, float] = {}
    spec_h = builtin_fdiv("hellinger")
    for rho in rhos:
        rv = revmarkov.tightness_instance(rho)
        k, mean = rv.support_size(), rv.mean()
        r = 1.0 / (2.0 * (2.0 ** k - 1.0))
        ident = max(abs(rv.masses.sum() - 1.0), abs(mean - r * k))
        results.append(CheckResult(f"identities_rho_{rho:g}", ident <= 1e-12, ident))

        # At D = 2 the level 2^-j keeps mass r (2^(j+1) - 2): best at j = k, 2^-k.
        exact = revmarkov.brute_force_revmarkov(rv, 2).achieved * 2.0 ** k - 1.0
        results.append(CheckResult(f"threshold_sum_exact_rho_{rho:g}", abs(exact) <= 1e-12,
                                   exact))

        # Preservation-loss trend: oracle ratio on the Hellinger-tight
        # pair at D=2, between 1 and the designer's; the per-rho constant
        # ratio/(R/D) is recorded.
        p, q = quantizer.hell_tight_instance(rho)
        h2 = hellinger_sq(p, q)
        e_bound = float((rv.values / 2.0 * rv.masses).sum())
        sandwich_ok = 0.02 * e_bound - 1e-12 <= h2 <= e_bound + 1e-12
        results.append(CheckResult(f"hell_sandwich_rho_{rho:g}", sandwich_ok, h2,
                                   {"lower": 0.02 * e_bound, "upper": e_bound}))
        oracle = quantizer.brute_force_threshold_channel(spec_h, p, q, 2)
        designed = quantizer.design_hellinger_channel(p, q, 2)
        r_over_d = designed.r_value / 2.0
        oracle_ratios[rho] = oracle.ratio_achieved
        results.append(CheckResult(
            f"tight_ratio_rho_{rho:g}",
            1.0 - 1e-12 <= oracle.ratio_achieved <= (1.0 + 1e-12) * designed.ratio_achieved,
            oracle.ratio_achieved,
            {"measured_constant": oracle.ratio_achieved / r_over_d, "r_over_d": r_over_d},
        ))
    if len(rhos) >= 2:
        ordered = [oracle_ratios[r] for r in sorted(rhos, reverse=True)]
        monotone = all(a < b for a, b in zip(ordered, ordered[1:]))
        growth = ordered[-1] / ordered[0]
        results.append(CheckResult("tight_ratio_monotone", monotone and growth >= 1.2,
                                   growth))
    return results


# --------------------------------------------------------------------------


def quantizer_suite(seed: int = 0, pairs: int = 1000,
                    oracle_pairs: int = 500) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    spec_h = builtin_fdiv("hellinger")

    worst_frac = 0.0   # ratio_achieved / bound, want <= 1
    worst_lb = math.inf
    worst_fit = -math.inf  # ratio_achieved - 1 where the ratio classes fit in D cells
    done = 0
    while done < pairs:
        k = int(rng.integers(2, 25))
        p = _random_dist(rng, k, zero_prob=0.3)
        q = _random_dist(rng, k, zero_prob=0.3)
        if hellinger_sq(p, q) < 1e-12:
            continue
        d = int(rng.choice([2, 3, 4, 8]))
        res = quantizer.design_hellinger_channel(p, q, d)
        worst_frac = max(worst_frac, res.ratio_achieved / res.bound)
        worst_lb = min(worst_lb, res.ratio_achieved)
        support = (p.probs > 0) | (q.probs > 0)
        if _sorted_unique(likelihood_ratios(p, q)[support]).size <= d:
            worst_fit = max(worst_fit, res.ratio_achieved - 1.0)
        done += 1
    results.append(CheckResult("hellinger_ceiling", worst_frac <= 1.0, worst_frac))
    results.append(CheckResult("ratio_at_least_one", worst_lb >= 1.0 - 1e-10, worst_lb))
    results.append(CheckResult("exact_when_classes_fit", worst_fit <= 1e-12, worst_fit))

    worst_dom = math.inf
    done = 0
    while done < oracle_pairs:
        k = int(rng.integers(2, 11))
        p = _random_dist(rng, k)
        q = _random_dist(rng, k)
        if hellinger_sq(p, q) < 1e-12:
            continue
        d = int(rng.choice([2, 3]))
        res = quantizer.design_hellinger_channel(p, q, d)
        orc = quantizer.brute_force_threshold_channel(spec_h, p, q, d)
        worst_dom = min(worst_dom, res.ratio_achieved - orc.ratio_achieved,
                        res.bound - orc.ratio_achieved)
        done += 1
    results.append(CheckResult("oracle_dominance", worst_dom >= -1e-9, worst_dom))

    # General-generator ceiling for sym_kl / triangular on full-support
    # instances (nu > 0 keeps f(nu) finite).
    for name in ("sym_kl", "triangular"):
        spec = builtin_fdiv(name)
        worst = 0.0
        done = 0
        while done < pairs // 5:
            k = int(rng.integers(2, 17))
            a = rng.dirichlet(np.ones(k)) + 0.01
            b = rng.dirichlet(np.ones(k)) + 0.01
            p, q = Distribution(a / a.sum()), Distribution(b / b.sum())
            d = int(rng.choice([2, 3, 4]))
            try:
                res = quantizer.design_fdiv_channel(spec, p, q, d)
            except DegenerateInputError:
                continue
            worst = max(worst, res.ratio_achieved / res.bound)
            done += 1
        results.append(CheckResult(f"general_ceiling_{name}", worst <= 1.0, worst))
    return results


# --------------------------------------------------------------------------


def robust_suite(seed: int = 0, setups: int = 200) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    worst_feas = 0.0
    worst_struct = 0.0
    done = 0
    while done < setups:
        k = int(rng.integers(2, 9))
        p = _random_dist(rng, k, zero_prob=0.2)
        q = _random_dist(rng, k, zero_prob=0.2)
        eps = float(rng.uniform(0.0, 0.45)) * total_variation(p, q)
        try:
            setup = robust.ContaminationSetup(p, q, eps)
        except InfeasibleContaminationError:
            continue
        lfd = robust.huber_lfd(setup)
        # Each side of the least favorable pair moves exactly eps of mass.
        worst_feas = max(
            worst_feas,
            abs(total_variation(p, lfd.p_lfd) - eps),
            abs(total_variation(q, lfd.q_lfd) - eps),
        )
        ratios = likelihood_ratios(p, q)
        lfd_ratios = likelihood_ratios(lfd.p_lfd, lfd.q_lfd)
        both = (lfd.p_lfd.probs > 0) & (lfd.q_lfd.probs > 0)
        clamped = np.clip(ratios, lfd.clip_low, lfd.clip_high)
        rel = np.abs(lfd_ratios[both] - clamped[both]) / np.maximum(1.0, clamped[both])
        worst_struct = max(worst_struct, float(rel.max(initial=0.0)))
        done += 1
    results.append(CheckResult("lfd_feasibility", worst_feas <= 1e-12, worst_feas))
    results.append(CheckResult("lfd_clip_structure", worst_struct <= 1e-12, worst_struct))

    # Blinding instance: the clean-optimal channel cannot tell the
    # contaminated p from q.
    p, q, p_tilde, t_star = robust.example_nonrobust_instance(0.01, 0.5)
    t_tilde, t_q = _push(t_star.matrix, np.stack([p_tilde.probs, q.probs]))
    gap = float(np.max(np.abs(t_tilde - t_q)))
    results.append(CheckResult("blinding_identity", gap <= 1e-12, gap))

    # Phase-transition pair: Hellinger scale eps^(1+delta), Scheffe eps^2. The
    # eps^(1+delta) atom, where q is 0, alone gives d_h^2 >= eps^1.7. The other
    # atoms give 1.57 eps^1.7 at eps = 1e-2 and 0.76 eps^1.7 at 1e-3, so the
    # floor sees a lost eps^(1+delta) atom from eps = 1e-3 down.
    for eps in (1e-3, 1e-4):
        pp, qq = robust.example_phase_transition_instance(eps, 0.2, 0.5, 0.7)
        h2 = hellinger_sq(pp, qq)
        band = h2 / eps ** 1.7
        sch = testing.scheffe_channel(pp, qq)
        h2s = hellinger_sq(apply_channel(sch, pp), apply_channel(sch, qq))
        band_s = h2s / eps ** 2
        results.append(CheckResult(f"phase_hellinger_band_eps_{eps:g}",
                                   1.0 - 1e-12 <= band <= 10.0, band))
        results.append(CheckResult(f"phase_scheffe_band_eps_{eps:g}",
                                   0.1 <= band_s <= 10.0, band_s))
    return results


# --------------------------------------------------------------------------


def _random_families(rng: np.random.Generator, count: int, m_high: int, k_high: int):
    """`count` families of M in [2, m_high) random hypotheses on k in
    [2, k_high) atoms; a draw with duplicate hypotheses is redrawn."""
    done = 0
    while done < count:
        m, k = int(rng.integers(2, m_high)), int(rng.integers(2, k_high))
        try:
            fam = mary.HypothesisFamily([_random_dist(rng, k) for _ in range(m)])
        except DegenerateInputError:
            continue
        yield fam
        done += 1


def mary_suite(seed: int = 0, tournament_trials: int = 200,
               channel_checks: int = 500, jl_seeds: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    # Pairwise-indicator reduction guarantee.
    worst = math.inf
    for fam in _random_families(rng, 200, m_high=7, k_high=41):
        t = mary.pairwise_indicator_reduction(fam)
        lhs = mary._pair_tv(_push(t.matrix, fam._probs))
        worst = min(worst, float((lhs - mary._pair_tv(fam._probs) / fam.m ** 2).min()))
    results.append(CheckResult("reduction_guarantee", worst >= -1e-12, worst))

    # Hadamard instance structure: centered chi-square inner products
    # sum_x (P_a - u)(P_b - u) / u = eps^2 1{a=b}, and TV eps/2 to uniform.
    fam4 = mary.hadamard_instance(4, 0.4)
    u = fam4.base.probs
    dev = fam4._probs - u
    gram = (dev[:, None] * dev / u).sum(axis=-1)
    worst_o = max(float(np.abs(gram - 0.4 ** 2 * np.eye(fam4.m)).max()),
                  *(abs(total_variation(fam4.base, d) - 0.2) for d in fam4.dists))
    results.append(CheckResult("hadamard_orthogonality", worst_o <= 1e-10, worst_o))
    worst_tv = min(total_variation(a, b)
                   for idx, a in enumerate(fam4.dists) for b in fam4.dists[idx + 1:])
    # Two Hadamard rows differ on exactly k/2 atoms, each by 2 eps / k: TV eps/2.
    results.append(CheckResult("hadamard_min_tv", abs(worst_tv - 0.2) <= 1e-12, worst_tv))

    # JL sketch: single-draw success rate.
    succ = 0
    for s in range(jl_seeds):
        try:
            mary.jl_sketch_channel(fam4, 3, seed=s, max_retries=1)
        except mary.StochasticFailureError:
            continue
        succ += 1
    results.append(CheckResult("jl_success_rate", succ >= 0.6 * jl_seeds, float(succ),
                               {"seeds": jl_seeds}))

    # Chi-square budget: random channels, then the sign channels, which meet it.
    fam8 = mary.hadamard_instance(8, 0.4)
    channels = [_random_channel(rng, fam8.k, int(rng.integers(2, 6)))
                for _ in range(channel_checks)]
    u = fam8.base.probs
    channels += [Channel(np.vstack([d.probs > u, d.probs <= u])) for d in fam8.dists]
    worst_chi2 = max(mary.chi_square_budget(fam8, ch) for ch in channels)
    results.append(CheckResult("chi_square_budget", worst_chi2 <= 1.0 + 1e-12, worst_chi2))

    # Binary-channel squeeze: sampled channels never beat the certified upper
    # bound (value: the largest lower / upper seen).
    worst_ratio = 0.0
    for i, fam in enumerate(_random_families(rng, 100, m_high=8, k_high=11)):
        rep = mary.verify_identical_d2_bound(fam, channel_samples=500, seed=seed + i)
        worst_ratio = max(worst_ratio, rep.lower / rep.sup_min_hellinger)
    results.append(CheckResult("binary_squeeze_sandwich", worst_ratio <= 1.0 + 1e-12,
                               worst_ratio, {"families": 100, "samples": 500}))

    # Tournaments: truth recovery rate on Hadamard families.
    for m, flavor in ((4, "nonadaptive"), (8, "adaptive")):
        fam = mary.hadamard_instance(m, 0.4)
        wins = 0
        for t in range(tournament_trials):
            truth = t % m
            sampler = mary.counts_sampler(fam.dists[truth])
            if flavor == "nonadaptive":
                tr = mary.tournament_nonadaptive(fam, 2, sampler, seed=seed + 1000 + t)
                ok = tr.winner == truth and not tr.ambiguous
            else:
                tr = mary.tournament_adaptive(fam, 2, sampler, seed=seed + 1000 + t)
                ok = tr.winner == truth
            wins += ok
        rate = wins / tournament_trials
        results.append(CheckResult(f"tournament_{flavor}_m{m}", rate >= 0.85, rate))
    return results


SUITES = {
    "facts": facts_suite,
    "reverse-markov": reverse_markov_suite,
    "quantizer": quantizer_suite,
    "robust": robust_suite,
    "mary": mary_suite,
    "tightness": tightness_suite,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name](seed=seed)
