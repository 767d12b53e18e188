"""M-ary identification under communication constraints.

Contains the pairwise tournament protocols (non-adaptive round robin and
adaptive knockout), identical-channel designs (pairwise-indicator reduction
and a random Johnson-Lindenstrauss style sketch), the Hadamard hard
instance, and the verifiers for the structural bounds they satisfy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import decision
from .core import (Channel, Distribution, _check_channel_input, _count, _freeze, _push,
                   _read_json, _trusted)
from .errors import (
    DegenerateInputError,
    DimensionError,
    StochasticFailureError,
    ValidationError,
)

# Tournament per-game sample sizing m = ceil(C log(M^2/0.1) R / rho^2).
DEFAULT_GAME_CONSTANT = 4.0
# JL sketch scale constants and the pilot-calibrated distance acceptance factor.
JL_COLUMN_SCALE = 11.0        # Q1 = 11 * D'
JL_NOISE_SCALE = 10.0         # Q2 = 10 * sqrt(log(k D'))
DEFAULT_JL_ACCEPT = 0.02  # pilot-calibrated: single-draw success ~0.85
DEFAULT_JL_RETRIES = 100

# Draws n samples as counts over the alphabet. A tournament calls it once per
# game, in game order; the round robin draws every game's samples before it
# decides any game. Quoted, so that importing commtest does not import numpy.random.
Sampler = Callable[["np.random.Generator", int], np.ndarray]


@dataclass(frozen=True)
class HypothesisFamily:
    """M candidate distributions on a shared alphabet, with cached pairwise
    separation statistics and (outside eq, hash, repr and JSON) their
    stacked M x k probabilities and the channel and LLR table of every
    tournament game played on it."""

    dists: tuple[Distribution, ...]
    base: Distribution | None = None
    hadamard_eps: float | None = None
    min_pairwise_hellinger: float = field(init=False)
    min_pairwise_tv: float = field(init=False)
    max_pairwise_hellinger: float = field(init=False)
    _probs: np.ndarray = field(init=False, repr=False, compare=False)
    _games: dict = field(init=False, repr=False, compare=False)

    def __init__(self, dists: Sequence[Distribution], base=None, hadamard_eps=None):
        dists = tuple(dists)
        if len(dists) < 2:
            raise ValidationError("a family needs at least two hypotheses")
        k = dists[0].k
        if any(d.k != k for d in dists):
            raise DimensionError("family members must share the alphabet")
        if base is not None and base.k != k:
            raise DimensionError(f"base alphabet {base.k} differs from the family's {k}")
        if not (hadamard_eps is None or isinstance(hadamard_eps, float) and 0 < hadamard_eps < 1):
            raise ValidationError("hadamard_eps must be None or a float in (0, 1)")
        probs = np.stack([d.probs for d in dists])
        ii, jj = _pairs(len(dists))
        roots = np.sqrt(probs)
        h = np.sqrt(((roots[ii] - roots[jj]) ** 2).sum(axis=1))
        tv = _pair_tv(probs)
        if not tv.all():
            raise DegenerateInputError("family contains duplicate hypotheses")
        _freeze(self, dists=dists, base=base, hadamard_eps=hadamard_eps,
                min_pairwise_hellinger=float(h.min()), max_pairwise_hellinger=float(h.max()),
                min_pairwise_tv=float(tv.min()), _probs=probs, _games={})

    @property
    def m(self) -> int:
        return len(self.dists)

    @property
    def k(self) -> int:
        return self.dists[0].k

    def to_json(self) -> dict:
        obj: dict = {"dists": [d.probs.tolist() for d in self.dists]}
        if self.base is not None:
            obj["base"] = self.base.probs.tolist()
        if self.hadamard_eps is not None:
            obj["hadamard_eps"] = self.hadamard_eps
        return obj

    def _game(self, i: int, j: int, out_size: int) -> tuple[Channel, np.ndarray]:
        """Channel designed from min(i, j) to max(i, j) and LLR table
        log(T p_i / T p_j), built on first use; inputs are read-only, so
        entries never go stale. Tournaments play i < j: one design per pair."""
        key = (i, j, out_size)
        if key not in self._games:
            from .quantizer import design_hellinger_channel
            channel = design_hellinger_channel(
                self.dists[min(i, j)], self.dists[max(i, j)], out_size
            ).channel
            llr = decision.message_llr(channel, self.dists[i], self.dists[j])
            self._games[key] = (channel, llr)
        return self._games[key]

    @classmethod
    def from_json(cls, obj: dict) -> "HypothesisFamily":
        dists, base, eps = _read_json(obj, "family", dists="array", base="array or null",
                                      hadamard_eps="number or null")
        return cls([Distribution(row) for row in dists],
                   base=None if base is None else Distribution(base), hadamard_eps=eps)


def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the M(M-1)/2 pairs i < j, in the order of
    `itertools.combinations(range(m), 2)`; `np.triu_indices(m, 1)`, at a
    fifth of its cost."""
    return np.nonzero(np.arange(m)[:, None] < np.arange(m))


def _pair_tv(rows: np.ndarray) -> np.ndarray:
    """TV distance of every pair of rows, in `_pairs` order."""
    ii, jj = _pairs(len(rows))
    return 0.5 * np.abs(rows[ii] - rows[jj]).sum(axis=1)


def min_pairwise_tv_after(channel: Channel, family: HypothesisFamily) -> float:
    _check_channel_input(channel, family.k)
    return float(_pair_tv(_push(channel.matrix, family._probs)).min())


# --------------------------------------------------------------------------
# Hadamard hard instance


def hadamard_instance(m: int, eps: float) -> HypothesisFamily:
    """P_a = (1 + eps * v_a) / k with v_a the mean-zero rows of the order-k
    Sylvester Hadamard matrix, k the smallest power of two with k >= m + 1.

    Every P_a is at TV distance eps/2 from uniform and the centered
    chi-square inner products satisfy chi_P(P_a, P_b) = eps^2 * 1{a=b}.
    """
    if m < 2:
        raise ValidationError("need at least two hypotheses")
    if not (0 < eps < 1):
        raise ValidationError("eps must be in (0, 1)")
    h = np.ones((1, 1))
    while h.shape[0] < m + 1:  # Sylvester: H_2k = [[H_k, H_k], [H_k, -H_k]]
        h = np.kron([[1.0, 1.0], [1.0, -1.0]], h)
    k = h.shape[0]
    base = Distribution(np.full(k, 1.0 / k))
    dists = [Distribution((1.0 + eps * h[a + 1]) / k) for a in range(m)]
    return HypothesisFamily(dists, base=base, hadamard_eps=eps)


# --------------------------------------------------------------------------
# Identical-channel designs


def pairwise_indicator_reduction(family: HypothesisFamily) -> Channel:
    """Channel with one output per hypothesis pair (plus a slack output):
    row (i, j) is the normalized indicator of {x : p_i(x) > p_j(x)}.

    Guarantees ||T(p_i - p_j)||_1 >= ||p_i - p_j||_1 / M^2 for every pair.
    """
    ii, jj = _pairs(family.m)
    rows = (family._probs[ii] > family._probs[jj]).astype(float)
    col_sums = rows.sum(axis=0)
    out = np.zeros((len(rows) + 1, family.k))
    nonzero = col_sums > 0
    out[:-1, nonzero] = rows[:, nonzero] / col_sums[nonzero]
    out[-1, ~nonzero] = 1.0
    return Channel(out)


def jl_distance_floor(
    family: HypothesisFamily, out_size: int, accept: float = DEFAULT_JL_ACCEPT
) -> float:
    """Acceptance threshold c * eps / (sqrt(k) M^(2/(D-1)) sqrt(D log(D k)))
    on the min pairwise output TV, with eps the min pairwise input TV."""
    if out_size < 2:
        raise ValidationError("out_size must be at least 2")
    if not 0 < accept < math.inf:
        raise ValidationError(f"accept must be positive and finite, got {accept!r}")
    d, k, m = out_size, family.k, family.m
    eps = family.min_pairwise_tv
    return accept * eps / (
        math.sqrt(k) * m ** (2.0 / (d - 1)) * math.sqrt(d * math.log(d * k))
    )


def jl_sketch_channel(
    family: HypothesisFamily,
    out_size: int,
    seed: int = 0,
    max_retries: int = DEFAULT_JL_RETRIES,
    accept: float = DEFAULT_JL_ACCEPT,
) -> Channel:
    """Random sketch channel H = (J + G/Q2) / Q1 on D-1 rows (J all-ones,
    G standard Gaussian), completed with a slack row; redrawn until it is a
    sub-channel and separates the family by the `accept`-scaled floor."""
    max_retries = _count("max_retries", max_retries)
    floor = jl_distance_floor(family, out_size, accept)
    best, best_score = _jl_sketch(family, out_size, seed, floor, max_retries)
    if not best_score >= floor:  # as in the draw loop, a NaN floor is never met
        raise StochasticFailureError(
            f"no sketch met the distance floor {floor:.3g} in {max_retries} draws",
            best=best,
            best_score=best_score,
        )
    return best


def _jl_sketch(
    family: HypothesisFamily,
    out_size: int,
    seed: int,
    floor: float,
    max_retries: int = DEFAULT_JL_RETRIES,
) -> tuple[Channel | None, float]:
    """The first sketch draw whose min pairwise output TV reaches `floor`,
    else the best draw, with that score; (None, -inf) if no draw is a
    sub-channel."""
    d_prime, k = out_size - 1, family.k
    q2 = JL_NOISE_SCALE * math.sqrt(math.log(k * d_prime))  # distinct hypotheses: k >= 2
    q1 = JL_COLUMN_SCALE * d_prime
    rng = np.random.default_rng(seed)
    best: Channel | None = None
    best_score = -math.inf
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


def identical_channel_design(
    family: HypothesisFamily, out_size: int, seed: int = 0
) -> tuple[Channel, float]:
    """Best-of: direct JL sketch, pairwise reduction composed with a JL
    sketch, and (when the alphabet fits) the identity embedding. Scored by
    realized min pairwise output TV.

    A sketch keeps its best draw when none meets the floor. A draw fails to
    be a sub-channel only when an entry of G lies below -Q2 <= -8.3 or a
    column of G sums past 10 (D-1) Q2, under 1e-16 a draw: each sketch has one."""
    candidates = [_jl_sketch(family, out_size, seed, jl_distance_floor(family, out_size))]
    reduction = pairwise_indicator_reduction(family)
    reduced = HypothesisFamily([_trusted(Distribution, probs=row)
                                for row in _push(reduction.matrix, family._probs)])
    sketch, _ = _jl_sketch(reduced, out_size, seed + 1, jl_distance_floor(reduced, out_size))
    composed = sketch.compose(reduction)  # scored on `family`, not on `reduced`
    candidates.append((composed, min_pairwise_tv_after(composed, family)))
    if family.k <= out_size:
        ident = Channel.identity(family.k, out_size)
        candidates.append((ident, min_pairwise_tv_after(ident, family)))
    return max(candidates, key=lambda cs: cs[1])


# --------------------------------------------------------------------------
# Tournaments


@dataclass(frozen=True)
class GameRecord:
    i: int
    j: int
    samples: int
    winner: int


@dataclass(frozen=True)
class TournamentTranscript:
    games: tuple[GameRecord, ...]
    winner: int
    total_samples: int
    ambiguous: bool  # non-adaptive only: no undefeated hypothesis

    def to_json(self) -> dict:
        return {**asdict(self), "games": [asdict(g) for g in self.games]}


def counts_sampler(dist: Distribution) -> Sampler:
    """Sampler drawing multinomial counts over the alphabet; the identity of
    `dist` stays hidden inside the closure."""

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.multinomial(n, dist.probs)

    return draw


def game_sample_size(
    family: HypothesisFamily, out_size: int, constant: float = DEFAULT_GAME_CONSTANT
) -> int:
    """m = ceil(C log(M^2/0.1) R / rho^2) with rho the min pairwise Hellinger
    distance and R = 1 + min(k, log2(1/rho^2)) / D."""
    if out_size < 2:
        raise ValidationError("out_size must be at least 2")
    if not 0 < constant < math.inf:
        raise ValidationError(f"constant must be positive and finite, got {constant!r}")
    rho_sq = family.min_pairwise_hellinger ** 2
    kprime = max(1.0, math.log2(1.0 / rho_sq)) if rho_sq < 1.0 else 1.0
    r = 1.0 + min(float(family.k), kprime) / out_size
    return math.ceil(constant * math.log(family.m ** 2 / 0.1) * r / rho_sq)


def tournament_nonadaptive(
    family: HypothesisFamily,
    out_size: int,
    sampler: Sampler,
    seed: int = 0,
    constant: float = DEFAULT_GAME_CONSTANT,
) -> TournamentTranscript:
    """Round robin over all M(M-1)/2 pairs with fresh samples per game.
    Every pair plays once, so at most one hypothesis is undefeated; the
    winner has the fewest losses (lowest index on ties), flagged ambiguous
    when it lost a game. `sampler` is called once per game, in game order,
    and every game's samples are drawn before any game is decided. Game
    channels stay on `family`: reuse one family object to design each pair
    only once."""
    rng = np.random.default_rng(seed)
    n_samples = game_sample_size(family, out_size, constant)
    ii, jj = _pairs(family.m)
    drawn = np.array([sampler(rng, n_samples) for _ in range(ii.size)])
    tables = [family._game(i, j, out_size) for i, j in zip(ii.tolist(), jj.tolist())]
    channels = np.array([channel.matrix for channel, _ in tables])
    counts = (channels @ drawn[:, :, None])[:, :, 0]  # threshold channels are 0/1
    llr = np.array([table for _, table in tables])
    first = decision.trial_statistics([counts], [llr]) >= 0  # ties go to ii
    losses = np.bincount(np.where(first, jj, ii), minlength=family.m)
    games = tuple(map(GameRecord, ii.tolist(), jj.tolist(), [n_samples] * ii.size,
                      np.where(first, ii, jj).tolist()))
    final = int(np.argmin(losses))
    return TournamentTranscript(
        games=games,
        winner=final,
        total_samples=n_samples * len(games),
        ambiguous=bool(losses[final]),
    )


def tournament_adaptive(
    family: HypothesisFamily,
    out_size: int,
    sampler: Sampler,
    seed: int = 0,
    constant: float = DEFAULT_GAME_CONSTANT,
) -> TournamentTranscript:
    """Knockout: the current champion plays each next hypothesis once,
    M - 1 games total. Game channels stay on `family`, as in the round robin."""
    rng = np.random.default_rng(seed)
    n_samples = game_sample_size(family, out_size, constant)
    games = []
    champion = 0
    for j in range(1, family.m):
        channel, llr = family._game(champion, j, out_size)
        counts = channel.matrix @ sampler(rng, n_samples)
        winner = champion if decision.llr_statistic([counts], [llr]) >= 0 else j
        games.append(GameRecord(i=champion, j=j, samples=n_samples, winner=winner))
        champion = winner
    return TournamentTranscript(
        games=tuple(games),
        winner=champion,
        total_samples=n_samples * len(games),
        ambiguous=False,
    )


# --------------------------------------------------------------------------
# Verifiers


@dataclass(frozen=True)
class BinaryChannelBoundReport:
    sup_min_hellinger: float     # certified upper bound on the sup over binary channels
    lower: float                 # best min pairwise d_h over the sampled channels
    max_pairwise_hellinger: float
    constant: float              # sup_min * M / max pairwise d_h

    def to_json(self) -> dict:
        return asdict(self)


def verify_identical_d2_bound(
    family: HypothesisFamily, channel_samples: int = 0, seed: int = 0
) -> BinaryChannelBoundReport:
    """Sandwich on sup over binary channels T of min_{i<j} d_h(Tp_i, Tp_j).

    Upper bound, certified for every binary channel, randomized ones
    included. Write a_i = P(output 1 | hypothesis i) and
    theta_i = arcsin sqrt(a_i) in [0, pi/2]. Then
    d_h(Tp_i, Tp_j)^2 = 2 - 2 cos(theta_i - theta_j), that is,
    d_h(Tp_i, Tp_j) = 2 sin(|theta_i - theta_j| / 2). By data processing
    every such distance is at most h = max d_h(p_i, p_j), so every two
    angles lie within Theta = 2 arcsin(h / 2) of each other. The M - 1 gaps
    between the sorted angles sum to at most Theta, so the smallest is at
    most Theta / (M - 1), and since sin increases on [0, pi/4] the min pair
    distance is at most 2 sin(Theta / (2 (M - 1))).

    Lower bound: the best min pair distance over `channel_samples` random
    stochastic channels drawn from `seed`; 0.0 with no samples, the score
    of a constant channel, which collapses every pair.
    """
    if channel_samples < 0:
        raise ValidationError("channel_samples must be non-negative")
    m, top = family.m, family.max_pairwise_hellinger
    upper = 2.0 * math.sin(math.asin(top / 2.0) / (m - 1))
    lower = 0.0
    if channel_samples:
        rows = np.random.default_rng(seed).random((channel_samples, family.k))
        a = np.clip(family._probs @ rows.T, 0.0, 1.0)  # M x channels, P(output=1)
        s, t = np.sqrt(a), np.sqrt(1.0 - a)
        ii, jj = _pairs(m)
        ds, dt = s[ii] - s[jj], t[ii] - t[jj]
        lower = float(np.sqrt(ds * ds + dt * dt).min(axis=0).max())
    return BinaryChannelBoundReport(
        sup_min_hellinger=upper,
        lower=lower,
        max_pairwise_hellinger=top,
        constant=upper * m / top,
    )


def chi_square_budget(family: HypothesisFamily, channel: Channel) -> float:
    """sum_i chi^2(T p_i || T b) / (eps^2 (D - 1)) for a D-output channel T,
    at most 1 on a Hadamard family.

    There g_i = (p_i - b) / b are orthogonal in L2(b), each of norm eps and
    mean zero. Write t = T(y | .) for one output y, so 0 <= t <= 1. Then
    T p_i(y) - T b(y) = <t - E_b t, g_i>_b, and Bessel's inequality gives
    sum_i (T p_i(y) - T b(y))^2 <= eps^2 Var_b(t) <= eps^2 T b(y) (1 - T b(y)).
    Dividing by T b(y) and summing over the D outputs gives eps^2 (D - 1).
    An output unused under b adds 0. The sign channels [1{p_a > b},
    1{p_a <= b}] meet the budget with equality.
    """
    if family.base is None or family.hadamard_eps is None:
        raise ValidationError("family must carry its base distribution and eps")
    _check_channel_input(channel, family.k)
    if channel.out_size < 2:
        raise ValidationError("the budget needs a channel with at least two outputs")
    images = _push(channel.matrix, np.vstack([family.base.probs, family._probs]))
    used = images[0] > 0
    chi2 = ((images[1:, used] - images[0, used]) ** 2 / images[0, used]).sum()
    return float(chi2) / (family.hadamard_eps ** 2 * (channel.out_size - 1))
