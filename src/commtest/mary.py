"""M-ary identification under communication constraints.

Contains the pairwise tournament protocols (non-adaptive round robin and
adaptive knockout), identical-channel designs (pairwise-indicator reduction
and a random Johnson-Lindenstrauss style sketch), the Hadamard hard
instance, and the verifiers for the structural bounds they satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .core import (
    Channel,
    Distribution,
    _push,
    apply_channel,
    hellinger_sq,
    total_variation,
)
from .errors import (
    CombinatorialBlowupError,
    DegenerateInputError,
    DimensionError,
    StochasticFailureError,
    ValidationError,
)
from .quantizer import design_hellinger_channel
from .testing import llr_statistic, message_llr

# Tournament per-game sample sizing m = ceil(C log(M^2/0.1) R / rho^2).
DEFAULT_GAME_CONSTANT = 4.0
# JL sketch scale constants and the pilot-calibrated distance acceptance factor.
JL_COLUMN_SCALE = 11.0        # Q1 = 11 * D'
JL_NOISE_SCALE = 10.0         # Q2 = 10 * sqrt(log(k D'))
DEFAULT_JL_ACCEPT = 0.02  # pilot-calibrated: single-draw success ~0.85
DEFAULT_JL_RETRIES = 100
# Largest constant M * sup_T min d_h(Tp_i, Tp_j) / max d_h(p_i, p_j) that the
# binary-channel squeeze checks accept.
SQUEEZE_CONSTANT_LIMIT = 3.0 * math.sqrt(2.0)
# Channels per step of the binary squeeze sweep (pairs x chunk temporaries).
_SWEEP_CHUNK = 4096

# Quoted, so that importing commtest does not import numpy.random.
Sampler = Callable[["np.random.Generator", int], np.ndarray]


@dataclass(frozen=True)
class HypothesisFamily:
    """M candidate distributions on a shared alphabet, with cached pairwise
    separation statistics and (outside eq, hash, repr and JSON) the channel
    and LLR table of every tournament game played on it."""

    dists: tuple[Distribution, ...]
    base: Distribution | None = None
    hadamard_eps: float | None = None
    min_pairwise_hellinger: float = field(init=False)
    min_pairwise_tv: float = field(init=False)
    max_pairwise_hellinger: float = field(init=False)
    _games: dict = field(init=False, repr=False, compare=False)

    def __init__(self, dists: Sequence[Distribution], base=None, hadamard_eps=None):
        dists = tuple(dists)
        if len(dists) < 2:
            raise ValidationError("a family needs at least two hypotheses")
        k = dists[0].k
        if any(d.k != k for d in dists):
            raise DimensionError("family members must share the alphabet")
        min_h, max_h, min_tv = math.inf, 0.0, math.inf
        for a, b in combinations(dists, 2):
            h = math.sqrt(hellinger_sq(a, b))
            tv = total_variation(a, b)
            if tv == 0.0:
                raise DegenerateInputError("family contains duplicate hypotheses")
            min_h, max_h, min_tv = min(min_h, h), max(max_h, h), min(min_tv, tv)
        object.__setattr__(self, "dists", dists)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "hadamard_eps", hadamard_eps)
        object.__setattr__(self, "min_pairwise_hellinger", min_h)
        object.__setattr__(self, "max_pairwise_hellinger", max_h)
        object.__setattr__(self, "min_pairwise_tv", min_tv)
        object.__setattr__(self, "_games", {})

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
            channel = design_hellinger_channel(
                self.dists[min(i, j)], self.dists[max(i, j)], out_size
            ).channel
            self._games[key] = (channel, message_llr(channel, self.dists[i], self.dists[j]))
        return self._games[key]

    @classmethod
    def from_json(cls, obj: dict) -> "HypothesisFamily":
        if not isinstance(obj, dict) or "dists" not in obj:
            raise ValidationError("family JSON must be an object with a 'dists' key")
        return cls(
            [Distribution(row) for row in obj["dists"]],
            base=Distribution(obj["base"]) if "base" in obj else None,
            hadamard_eps=obj.get("hadamard_eps"),
        )


def min_pairwise_tv_after(channel: Channel, family: HypothesisFamily) -> float:
    images = [apply_channel(channel, d) for d in family.dists]
    return min(total_variation(a, b) for a, b in combinations(images, 2))


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


def chi_square_inner(base: Distribution, a: Distribution, b: Distribution) -> float:
    """Centered inner product sum (a_i - u_i)(b_i - u_i) / u_i."""
    u = base.probs
    if np.any(u <= 0):
        raise ValidationError("base distribution must have full support")
    return float((((a.probs - u) * (b.probs - u)) / u).sum())


# --------------------------------------------------------------------------
# Identical-channel designs


def pairwise_indicator_reduction(family: HypothesisFamily) -> Channel:
    """Channel with one output per hypothesis pair (plus a slack output):
    row (i, j) is the normalized indicator of {x : p_i(x) > p_j(x)}.

    Guarantees ||T(p_i - p_j)||_1 >= ||p_i - p_j||_1 / M^2 for every pair.
    """
    m, k = family.m, family.k
    pairs = list(combinations(range(m), 2))
    rows = np.zeros((len(pairs) + 1, k))
    for r, (i, j) in enumerate(pairs):
        rows[r] = (family.dists[i].probs > family.dists[j].probs).astype(float)
    col_sums = rows[:-1].sum(axis=0)
    out = np.zeros_like(rows)
    nonzero = col_sums > 0
    out[:-1, nonzero] = rows[:-1, nonzero] / col_sums[nonzero]
    out[-1, ~nonzero] = 1.0
    return Channel(out)


def _jl_membership_ok(h: np.ndarray) -> bool:
    return bool(np.all(h >= 0.0) and np.all(h.sum(axis=0) <= 1.0))


def jl_distance_floor(
    family: HypothesisFamily, out_size: int, accept: float = DEFAULT_JL_ACCEPT
) -> float:
    """Acceptance threshold c * eps / (sqrt(k) M^(2/(D-1)) sqrt(D log(D k)))
    on the min pairwise output TV, with eps the min pairwise input TV."""
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
    if out_size < 2:
        raise ValidationError("out_size must be at least 2")
    d_prime = out_size - 1
    k = family.k
    q2 = JL_NOISE_SCALE * math.sqrt(math.log(k * d_prime)) if k * d_prime > 1 else JL_NOISE_SCALE
    q1 = JL_COLUMN_SCALE * d_prime
    floor = jl_distance_floor(family, out_size, accept)
    rng = np.random.default_rng(seed)
    best: Channel | None = None
    best_score = -math.inf
    for _ in range(max_retries):
        g = rng.standard_normal((d_prime, k))
        h = (1.0 + g / q2) / q1
        if not _jl_membership_ok(h):
            continue
        full = np.vstack([h, 1.0 - h.sum(axis=0)])
        channel = Channel(full)
        score = min_pairwise_tv_after(channel, family)
        if score > best_score:
            best, best_score = channel, score
        if score >= floor:
            return channel
    raise StochasticFailureError(
        f"no sketch met the distance floor {floor:.3g} in {max_retries} draws",
        best=best,
        best_score=best_score,
    )


def identical_channel_design(
    family: HypothesisFamily, out_size: int, seed: int = 0
) -> tuple[Channel, float]:
    """Best-of: direct JL sketch, pairwise reduction composed with a JL
    sketch, and (when the alphabet fits) the identity embedding. Scored by
    realized min pairwise output TV."""
    candidates: list[tuple[Channel, float]] = []

    def try_sketch(fam: HypothesisFamily, pre: Channel | None, jl_seed: int) -> None:
        try:
            sketch = jl_sketch_channel(fam, out_size, seed=jl_seed)
        except StochasticFailureError as exc:
            if exc.best is None:
                return
            sketch = exc.best
        channel = sketch if pre is None else sketch.compose(pre)
        candidates.append((channel, min_pairwise_tv_after(channel, family)))

    try_sketch(family, None, seed)
    reduction = pairwise_indicator_reduction(family)
    reduced = HypothesisFamily([apply_channel(reduction, d) for d in family.dists])
    try_sketch(reduced, reduction, seed + 1)
    if family.k <= out_size:
        ident = Channel.identity(family.k, out_size)
        candidates.append((ident, min_pairwise_tv_after(ident, family)))
    if not candidates:
        raise DegenerateInputError("no identical-channel candidate available")
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
    ambiguous: bool  # non-adaptive only: no unique undefeated hypothesis

    def to_json(self) -> dict:
        return {
            "games": [
                {"i": g.i, "j": g.j, "samples": g.samples, "winner": g.winner}
                for g in self.games
            ],
            "winner": self.winner,
            "total_samples": self.total_samples,
            "ambiguous": self.ambiguous,
        }


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
    rho_sq = family.min_pairwise_hellinger ** 2
    kprime = max(1.0, math.log2(1.0 / rho_sq)) if rho_sq < 1.0 else 1.0
    r = 1.0 + min(float(family.k), kprime) / out_size
    return math.ceil(constant * math.log(family.m ** 2 / 0.1) * r / rho_sq)


def _play_game(
    family: HypothesisFamily,
    i: int,
    j: int,
    out_size: int,
    n_samples: int,
    sampler: Sampler,
    rng: np.random.Generator,
) -> int:
    channel, llr = family._game(i, j, out_size)
    counts = channel.matrix @ sampler(rng, n_samples)  # threshold channels are 0/1
    return i if llr_statistic([counts], [llr]) >= 0 else j


def tournament_nonadaptive(
    family: HypothesisFamily,
    out_size: int,
    sampler: Sampler,
    seed: int = 0,
    constant: float = DEFAULT_GAME_CONSTANT,
) -> TournamentTranscript:
    """Round robin over all M(M-1)/2 pairs with fresh samples per game;
    the winner is the unique undefeated hypothesis (lowest-index undefeated,
    flagged ambiguous, when there is none or several). Game channels stay
    on `family`: reuse one family object to design each pair only once."""
    rng = np.random.default_rng(seed)
    n_samples = game_sample_size(family, out_size, constant)
    games = []
    losses = np.zeros(family.m, dtype=int)
    for i, j in combinations(range(family.m), 2):
        winner = _play_game(family, i, j, out_size, n_samples, sampler, rng)
        losses[j if winner == i else i] += 1
        games.append(GameRecord(i=i, j=j, samples=n_samples, winner=winner))
    undefeated = np.flatnonzero(losses == 0)
    if undefeated.size == 1:
        final, ambiguous = int(undefeated[0]), False
    else:
        final = int(undefeated[0]) if undefeated.size else int(np.argmin(losses))
        ambiguous = True
    return TournamentTranscript(
        games=tuple(games),
        winner=final,
        total_samples=n_samples * len(games),
        ambiguous=ambiguous,
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
        winner = _play_game(family, champion, j, out_size, n_samples, sampler, rng)
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
    sup_min_hellinger: float     # best min pairwise d_h over binary channels
    max_pairwise_hellinger: float
    constant: float              # sup_min * M / max pairwise d_h
    witness_pair: tuple[int, int]
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "sup_min_hellinger": self.sup_min_hellinger,
            "max_pairwise_hellinger": self.max_pairwise_hellinger,
            "constant": self.constant,
            "witness_pair": list(self.witness_pair),
            "exhaustive": self.exhaustive,
        }


def verify_identical_d2_bound(
    family: HypothesisFamily, channel_samples: int = 0, seed: int = 0
) -> BinaryChannelBoundReport:
    """Best min pairwise output Hellinger distance found over binary channels.

    Scores all 2^k deterministic binary channels for k <= 16, then
    `channel_samples` random stochastic ones. The objective is not convex in
    the channel, so a randomized channel can beat every deterministic one:
    the result is a lower bound on the sup. The witness pair realizes the
    min at the best channel: two hypotheses squeezed together by any single
    binary quantizer.

    P(output = 1) for every channel comes from one matrix product; the pair
    distances are then swept in chunks of _SWEEP_CHUNK channels, taking the
    min over pairs and the max over channels with the first index winning
    every tie.
    """
    k, m = family.k, family.m
    if channel_samples < 0:
        raise ValidationError("channel_samples must be non-negative")
    if k > 16:
        raise CombinatorialBlowupError("exhaustive binary search limited to k <= 16")
    probs = np.vstack([d.probs for d in family.dists])  # M x k
    bits = np.empty((2 ** k + channel_samples, k))  # one channel per row
    masks = np.arange(2 ** k, dtype=np.uint16)
    bits[: 2 ** k] = (masks[:, None] >> np.arange(k, dtype=np.uint16)) & 1
    bits[2 ** k :] = np.random.default_rng(seed).random((channel_samples, k))
    # One product for all channels: the BLAS can round a column differently
    # when the matrix is narrower, so chunked products would move the report.
    a = probs @ bits.T  # M x n_channels, P(output=1)
    del bits
    np.clip(a, 0.0, 1.0, out=a)
    ii, jj = np.array(list(combinations(range(m), 2))).T
    best_min, best_pair = -1.0, (0, 1)
    for start in range(0, a.shape[1], _SWEEP_CHUNK):
        col = a[:, start : start + _SWEEP_CHUNK]
        s, t = np.sqrt(col), np.sqrt(1.0 - col)
        ds, dt = s[ii] - s[jj], t[ii] - t[jj]
        h = np.sqrt(ds * ds + dt * dt)  # pairs x channels
        worst = h.min(axis=0)
        c = int(worst.argmax())
        if worst[c] > best_min:
            pair = int(h[:, c].argmin())
            best_min, best_pair = float(worst[c]), (int(ii[pair]), int(jj[pair]))
    eps2 = family.max_pairwise_hellinger
    return BinaryChannelBoundReport(
        sup_min_hellinger=best_min,
        max_pairwise_hellinger=eps2,
        constant=best_min * m / eps2,
        witness_pair=best_pair,
        exhaustive=True,
    )


def l1_embedding_bound_check(
    family: HypothesisFamily, channel: Channel
) -> tuple[bool, float]:
    """Average TV to the base after any channel is at most eps sqrt(D/M):
    returns (holds, slack = bound - average)."""
    if family.base is None or family.hadamard_eps is None:
        raise ValidationError("family must carry its base distribution and eps")
    if channel.in_size != family.k or family.base.k != family.k:
        raise DimensionError("channel, family and base must share the alphabet")
    t_base = _push(channel.matrix, family.base.probs)
    avg = float(np.mean([0.5 * np.abs(_push(channel.matrix, d.probs) - t_base).sum()
                         for d in family.dists]))
    bound = family.hadamard_eps * math.sqrt(channel.out_size) / math.sqrt(family.m)
    return avg <= bound + 1e-12, bound - avg
