"""Divergence-preserving quantization: D-output threshold channels that keep
a constant fraction of I_f(p, q), with an extra log(1/I_f)/D blow-up at most.

The designer evaluates a small set of threshold-channel candidates:

- a single split at ratio 1 + kappa (both orientations) for the case where
  most of the divergence sits on extreme likelihood ratios;
- reverse-Markov grids on the near-1 ratio bucket mapped through the
  sandwich exponent alpha (both orientations);
- a lossless separating channel whenever the distinct ratios fit into D cells.

The best realized preservation ratio wins.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Channel,
    Distribution,
    FDivergenceSpec,
    ThresholdSet,
    _fdiv_sum,
    _fdiv_term,
    _push,
    _ratio_labels,
    _trusted,
    apply_channel,
    builtin_fdiv,
    f_divergence,
    hellinger_sq,
    likelihood_ratios,
    threshold_channel,
)
from .errors import DegenerateInputError, ValidationError
from .revmarkov import (
    DiscreteRV,
    _best_cuts,
    _cell_sums,
    reverse_markov_best,
    tightness_instance,
)

# Constants from the preservation guarantees.
MAIN_TERM_COEFF = 4.0        # weight on f(nu)/f(1/(1+kappa))
BLOWUP_COEFF = 52.0          # weight on (c2/c1) * max(1, R/D)
HELLINGER_CEILING = 1800.0   # hellinger-specific ratio ceiling coefficient

_DIVERGENCE_FLOOR = 1e-15


@dataclass(frozen=True)
class QuantizeResult:
    channel: Channel
    gamma: ThresholdSet
    ratio_achieved: float
    bound: float
    case_taken: str          # "large-ratio", "small-ratio", or "oracle"
    r_value: float           # effective blow-up R = min(k, k')

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma.to_json(),
            "channel": self.channel.to_json(),
            "ratio_achieved": self.ratio_achieved,
            "bound": self.bound,
            "case": self.case_taken,
            "r_value": self.r_value,
        }


def fdiv_ratio(
    spec: FDivergenceSpec, p: Distribution, q: Distribution, channel: Channel
) -> float:
    """Preservation ratio I_f(p,q) / I_f(Tp, Tq); inf when the output
    divergence vanishes but the input one does not."""
    num = f_divergence(spec, p, q)
    return _ratio_of(num, f_divergence(spec, apply_channel(channel, p), apply_channel(channel, q)))


def _ratio_of(num: float, den: float) -> float:
    """`fdiv_ratio` given num = I_f(p, q) and den = I_f(Tp, Tq)."""
    if num <= _DIVERGENCE_FLOOR:
        raise DegenerateInputError("I_f(p, q) is zero; preservation ratio undefined")
    if math.isinf(num):
        return 1.0 if math.isinf(den) else math.inf
    if den <= _DIVERGENCE_FLOOR:
        return math.inf
    return num / den


def _min_ratio(p: Distribution, q: Distribution) -> float:
    """nu = min over the joint support of min(p_i/q_i, q_i/p_i)."""
    pa, qa = p.probs, q.probs
    if np.any((pa > 0) != (qa > 0)):
        return 0.0
    both = pa > 0  # the quotient below 1 cannot overflow
    return min(1.0, (np.minimum(pa, qa)[both] / np.maximum(pa, qa)[both]).min())


def _pad_levels(levels: list[float], out_size: int) -> np.ndarray:
    """Sorted thresholds, the top one repeated up to D - 1 of them."""
    levels = sorted(levels)
    if len(levels) > out_size - 1:
        raise ValidationError("too many thresholds for the output budget")
    return np.array(levels + [levels[-1]] * (out_size - 1 - len(levels)))


def _near_one_grid(
    spec: FDivergenceSpec, ratios: np.ndarray, qa: np.ndarray, out_size: int
) -> list[float] | None:
    """Reverse-Markov thresholds for the bucket of ratios p/q in (1, 1+kappa),
    given the ratios of (p, q) and the probabilities of q."""
    mask = (ratios > 1.0) & (ratios < 1.0 + spec.kappa) & (qa > 0)
    if not mask.any():
        return None
    deltas = ratios[mask] - 1.0
    weights = qa[mask]
    y_vals, inv = np.unique(deltas ** spec.alpha, return_inverse=True)
    y_mass = np.bincount(inv, weights)
    rest = max(0.0, 1.0 - y_mass.sum())
    beta = spec.kappa ** spec.alpha
    if rest > 0:
        if y_vals[0] == 0.0:
            y_mass[0] += rest
        else:
            y_vals = np.concatenate(([0.0], y_vals))
            y_mass = np.concatenate(([rest], y_mass))
    if y_vals[-1] >= beta:  # delta ** alpha can round up; DiscreteRV's other checks hold
        raise ValidationError("values must lie in [0, beta)")
    rv = _trusted(DiscreteRV, values=y_vals, masses=y_mass / y_mass.sum(), beta=beta)
    grid = reverse_markov_best(rv, out_size)
    # map grid levels on the X^alpha axis back to ratio thresholds 1 + nu
    return [1.0 + nu ** (1.0 / spec.alpha) for nu in grid.nus[:-1]]


def _ratio_cuts(p: Distribution, q: Distribution) -> list[float]:
    """One threshold per boundary between adjacent likelihood-ratio classes
    of the joint support: each finite ratio above the smallest, plus one
    past the largest finite ratio when some ratio is infinite. No finite cut
    lies past the float maximum: a class there shares the top cell with the
    infinite class."""
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


def design_fdiv_channel(
    spec: FDivergenceSpec, p: Distribution, q: Distribution, out_size: int
) -> QuantizeResult:
    """Design a D-output threshold channel approximately preserving I_f(p,q)."""
    if out_size < 2:
        raise ValidationError("out_size must be at least 2")
    # with these, every candidate below is a valid ThresholdSet by construction
    if not (0 < spec.kappa < math.inf and 0 < spec.alpha < math.inf):
        raise ValidationError("spec.kappa and spec.alpha must be positive and finite")
    i_f = f_divergence(spec, p, q)
    if i_f <= _DIVERGENCE_FLOOR:
        raise DegenerateInputError("p and q are (numerically) identical")

    candidates: list[tuple[list[float], str]] = [
        ([1.0 + spec.kappa], "large-ratio"),
        ([1.0 / (1.0 + spec.kappa)], "large-ratio"),
    ]
    pa, qa = p.probs, q.probs
    ratios = likelihood_ratios(p, q)
    fwd = _near_one_grid(spec, ratios, qa, out_size)
    if fwd is not None:
        candidates.append((fwd, "small-ratio"))
    swp = _near_one_grid(spec, likelihood_ratios(q, p), pa, out_size)
    if swp is not None:
        candidates.append((sorted(1.0 / t for t in swp), "small-ratio"))
    sep = _ratio_cuts(p, q)
    if 0 < len(sep) < out_size:  # every ratio class in its own cell: lossless
        candidates.append((sep, "small-ratio"))

    scored = []
    for levels, case in candidates:
        levels = _pad_levels(levels, out_size)
        labels = _ratio_labels(ratios, levels)
        den = _fdiv_sum(spec, _push(labels, pa), _push(labels, qa))
        scored.append((_ratio_of(i_f, den), labels, levels, case))
    ratio, labels, levels, case = min(scored, key=lambda item: item[0])  # first of ties
    channel, gamma = _trusted(Channel, matrix=labels), _trusted(ThresholdSet, values=levels)

    k_support = int(np.count_nonzero((pa > 0) | (qa > 0)))
    if math.isinf(i_f):
        kprime = 1.0
    else:
        kprime = max(1.0, 1.0 + math.log2(4.0 * spec.c2 * spec.kappa ** spec.alpha / i_f))
    r_value = min(float(k_support), kprime)

    nu = _min_ratio(p, q)
    f_nu = spec.evaluate(nu)
    f_edge = spec.evaluate(1.0 / (1.0 + spec.kappa))
    main = MAIN_TERM_COEFF * f_nu / f_edge if math.isfinite(f_nu) else math.inf
    bound = main + BLOWUP_COEFF * (spec.c2 / spec.c1) * max(1.0, r_value / out_size)
    return QuantizeResult(channel=channel, gamma=gamma, ratio_achieved=ratio, bound=bound,
                          case_taken=case, r_value=r_value)


def design_hellinger_channel(
    p: Distribution, q: Distribution, out_size: int
) -> QuantizeResult:
    """Hellinger specialization: ratio ceiling 1800 * max(1, min(k, k')/D)
    with k' = log2(4 / d_h^2), regardless of how small ratios get."""
    spec = builtin_fdiv("hellinger")
    base = design_fdiv_channel(spec, p, q, out_size)
    h2 = hellinger_sq(p, q)
    k_support = int(np.count_nonzero((p.probs > 0) | (q.probs > 0)))
    kprime = max(1.0, math.log2(4.0 / h2))
    r_value = min(float(k_support), kprime)
    bound = HELLINGER_CEILING * max(1.0, r_value / out_size)
    return replace(base, bound=bound, r_value=r_value)


def brute_force_threshold_channel(
    spec: FDivergenceSpec, p: Distribution, q: Distribution, out_size: int
) -> QuantizeResult:
    """Exact best threshold channel, by a dynamic program over ratio classes.

    An optimal channel splits the sorted ratio classes (the infinite one
    last) into min(D, classes) contiguous cells, and I_f(Tp, Tq) adds up
    over the cells (Kurkoski & Yagi 2014).
    """
    if out_size < 2:
        raise ValidationError("out_size must be at least 2")
    i_f = f_divergence(spec, p, q)
    if i_f <= _DIVERGENCE_FLOOR:
        raise DegenerateInputError("p and q are (numerically) identical")
    cuts = _ratio_cuts(p, q)
    if not cuts:
        raise DegenerateInputError("only one likelihood-ratio class present")
    classes = threshold_channel(p, q, ThresholdSet(cuts)).matrix
    p_cells = _cell_sums(classes @ p.probs)
    q_cells = _cell_sums(classes @ q.probs)
    n = len(cuts) + 1
    score = np.zeros((n, n + 1))
    for a in range(n):
        for b in range(a + 1, n + 1):
            score[a, b] = _fdiv_term(spec, p_cells[a, b], q_cells[a, b])
    chosen = _best_cuts(score, min(out_size - 1, len(cuts)))
    gamma = ThresholdSet(_pad_levels([cuts[c - 1] for c in chosen], out_size))
    channel = threshold_channel(p, q, gamma)
    return QuantizeResult(
        channel=channel,
        gamma=gamma,
        ratio_achieved=fdiv_ratio(spec, p, q, channel),
        bound=math.inf,
        case_taken="oracle",
        r_value=math.nan,
    )


def hell_tight_instance(rho: float) -> tuple[Distribution, Distribution]:
    """Mirrored perturbation pair on 2m points with d_h^2 = Theta(rho) on
    which every D-output channel loses a log(1/rho)/D factor of Hellinger.

    Built from the reverse-Markov tightness instance: masses q~_i and
    perturbations delta_i = sqrt(y_i / 2) in (0, 0.5], with
    p = (q~/2)(1 +/- delta) on the two mirrored halves.
    """
    rv = tightness_instance(rho)
    q_half = 0.5 * rv.masses
    delta = np.sqrt(rv.values / 2.0)
    q = Distribution(np.concatenate([q_half, q_half]))
    p = Distribution(np.concatenate([q_half * (1.0 + delta), q_half * (1.0 - delta)]))
    return p, q
