"""Independent numpy references the benchmark checks library outputs against.

Nothing here imports commtest: every value is computed from the raw arrays
the benchmark generated (or read back from documented result fields), with
closed forms where the library evaluates loops or draws samples.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# Relative tolerance between a closed form here and the library's loop over
# the same floats; both are double precision sums of at most a few hundred
# terms, so 1e-9 leaves ample room for reassociation.
REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def f_divergence(name: str, p: np.ndarray, q: np.ndarray) -> float:
    """I_f(p, q) in closed form for the built-in generators used here."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if name == "hellinger":
            return float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
        if name == "tv":
            return float(0.5 * np.abs(p - q).sum())
        if name == "triangular":
            s = p + q
            return float(np.where(s > 0, (p - q) ** 2 / np.where(s > 0, s, 1.0), 0.0).sum())
        if name == "sym_kl":
            if np.any((p > 0) != (q > 0)):
                return math.inf
            both = (p > 0) & (q > 0)
            return float(((p[both] - q[both]) * np.log(p[both] / q[both])).sum())
        if name == "sym_chi_1.5":
            if np.any((p > 0) != (q > 0)):
                return math.inf
            both = (p > 0) & (q > 0)
            d = np.abs(p[both] - q[both]) ** 1.5
            return float((d * (q[both] ** -0.5 + p[both] ** -0.5)).sum())
    raise ValueError(f"no reference for {name!r}")


def push(matrix: np.ndarray, dist: np.ndarray) -> np.ndarray:
    out = np.clip(matrix @ dist, 0.0, None)
    return out / out.sum()


def preservation(name: str, matrix: np.ndarray, p: np.ndarray, q: np.ndarray):
    """(I_f(p,q), I_f(Tp,Tq), their ratio), the ratio infinite when the
    image divergence vanishes and 1 when both are infinite."""
    before = f_divergence(name, p, q)
    after = f_divergence(name, push(matrix, p), push(matrix, q))
    if math.isinf(before):
        return before, after, 1.0 if math.isinf(after) else math.inf
    return before, after, math.inf if after <= 1e-15 else before / after


def ratio_cuts(p: np.ndarray, q: np.ndarray) -> int:
    """Boundary candidates of the threshold-channel search: one per distinct
    likelihood-ratio class above the lowest, plus one for an infinite class."""
    support = (p > 0) | (q > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = p[support] / q[support]
    finite = np.unique(r[np.isfinite(r)])
    return max(0, finite.size - 1) + int(bool(np.any(np.isinf(r))) and finite.size > 0)


def subsets(n: int, d: int) -> int:
    """(D-1)-subsets of n candidates an exhaustive search over D cells visits."""
    return math.comb(n, min(d - 1, n))


def revmarkov_objective(values: np.ndarray, masses: np.ndarray, nus) -> float:
    """F(nu) = sum_j nu_j P(Y in [nu_j, nu_{j+1})), evaluated atom by atom."""
    nus = list(nus)
    total = 0.0
    for lo, hi in zip(nus[:-1], nus[1:]):
        total += lo * float(masses[(values >= lo) & (values < hi)].sum())
    return total


def revmarkov_guarantee(values: np.ndarray, masses: np.ndarray, beta: float, d: int) -> float:
    mean = float(values @ masses)
    k = int(np.count_nonzero(masses > 0))
    r = min(float(k), max(1.0, 1.0 + math.log2(beta / mean)))
    return mean * min(1.0, d / r) / 13.0


def log_binomial_pmf(n: int, t: float) -> np.ndarray:
    """log P(Bin(n, t) = c) for c = 0..n, numpy only."""
    c = np.arange(n + 1, dtype=float)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((n - c[1:] + 1.0) / c[1:]))))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(c > 0, c * math.log(t) if t > 0 else -np.inf, 0.0)
        b = np.where(c < n, (n - c) * math.log1p(-t) if t < 1 else -np.inf, 0.0)
    return log_choose + a + b


def llr_table(tp: np.ndarray, tq: np.ndarray) -> np.ndarray:
    """Per-message log((Tp)_y / (Tq)_y), 0 for messages impossible under both."""
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = np.log(tp) - np.log(tq)
    llr[(tp == 0) & (tq == 0)] = 0.0
    return llr


def exact_binary_error(tp: np.ndarray, tq: np.ndarray, n: int) -> tuple[float, float]:
    """Exact (P-branch, Q-branch) error of the LRT on n binary messages from
    one shared channel with output laws tp, tq; ties go to P."""
    llr = llr_table(tp, tq)
    c1 = np.arange(n + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        parts = [np.where(c > 0, c * l, 0.0) for c, l in ((n - c1, llr[0]), (c1, llr[1]))]
    stat = sum(np.where(np.isnan(x), 0.0, x) for x in parts)
    decide_q = stat < 0
    decide_p = stat >= 0
    err_p = float(np.exp(log_binomial_pmf(n, float(tp[1])))[decide_q].sum())
    err_q = float(np.exp(log_binomial_pmf(n, float(tq[1])))[decide_p].sum())
    return err_p, err_q


def mc_band(exact_p: float, exact_q: float, trials: int) -> float:
    """Five 95% half-widths of a Monte Carlo total error, taken at the exact
    error rates, plus one trial's worth of slack so that a vanishing exact
    error is not held to a zero-width band."""
    var = (exact_p * (1 - exact_p) + exact_q * (1 - exact_q)) / trials
    return 5.0 * 1.959963984540054 * math.sqrt(max(var, 0.0)) + 1.0 / trials


def mc_agrees(mc: float, exact_p: float, exact_q: float, trials: int) -> bool:
    return abs(mc - (exact_p + exact_q)) <= mc_band(exact_p, exact_q, trials)


def lrt_reference(llrs: list[np.ndarray], messages: np.ndarray) -> str | None:
    """Referee decision from per-user LLR tables (round robin); None when the
    statistic is within rounding of a tie, where either answer is right."""
    g = len(llrs)
    terms = np.concatenate([llrs[j][messages[j::g]] for j in range(g)])
    stat = float(terms.sum())
    if abs(stat) <= 1e-9 * float(np.abs(terms).sum()):
        return None
    return "P" if stat > 0 else "Q"


def hellinger_distance(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(float(((np.sqrt(a) - np.sqrt(b)) ** 2).sum()))


def min_pairwise_binary_hellinger(probs: np.ndarray, mask: np.ndarray) -> float:
    """min over pairs of d_h between the Bernoulli images of the rows of
    `probs` under the deterministic binary channel that outputs 1 on `mask`."""
    ones = np.clip(probs @ mask.astype(float), 0.0, 1.0)
    images = np.stack([ones, 1.0 - ones], axis=1)
    return min(hellinger_distance(images[i], images[j])
               for i, j in combinations(range(len(ones)), 2))


def min_pairwise_tv(images: np.ndarray) -> float:
    return min(0.5 * float(np.abs(images[i] - images[j]).sum())
               for i, j in combinations(range(len(images)), 2))
