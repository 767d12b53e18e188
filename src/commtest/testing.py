"""Distributed binary testing: LRT decisions from quantized messages and a
Monte Carlo error / sample-complexity estimator.

Users observe iid samples, each pushed through a per-user channel (round
robin over `TestRule.channels`); the referee compares the log-likelihoods of
the message vector under the two hypotheses. Ties go to P.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import decision
from .core import (Channel, Distribution, _check_channel_input, _check_same_alphabet, _count,
                   _freeze, _push)
from .errors import DimensionError, NonConvergenceError, ValidationError

DEFAULT_ERROR_BUDGET = 0.1
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class TestRule:
    """Channels assigned round robin: user i uses channels[i % len(channels)]."""

    __test__ = False  # statistical test rule, not a pytest case

    channels: tuple[Channel, ...]

    def __init__(self, channels: Sequence[Channel]):
        channels = tuple(channels)
        if not channels:
            raise ValidationError("a test rule needs at least one channel")
        k = channels[0].in_size
        if any(c.in_size != k for c in channels):
            raise DimensionError("all channels must share the input alphabet")
        _freeze(self, channels=channels)


def lrt_decide(
    p: Distribution, q: Distribution, rule: TestRule, messages: Sequence[int]
) -> str:
    """Decide "P" or "Q" from one message per user; ties go to P. Only the
    message counts per channel matter, not the order of the users.

    `messages` holds one integer code per user: a list, tuple or 1-D array
    of ints or numpy integers. A list or tuple whose entries all give 0..255
    through `__index__` is read as bytes; anything else goes through
    `np.asarray`, which rejects all-bool input, floats, nesting, `str` and
    `bytes`. The LLR tables come from `decision.message_llr`, which keeps
    them per (channel, p, q) object triple (read-only, a bounded memo), so
    repeated calls on one rule and pair build them once."""
    msgs = None
    # bytearray takes only integers in 0..255, through __index__, which
    # numpy's bool scalars lack; a list led by a Python bool is left to
    # numpy, which rejects it only when every entry is a bool
    if type(messages) in (list, tuple) and not (messages and type(messages[0]) is bool):
        try:
            msgs = np.frombuffer(bytearray(messages), np.uint8)
        except (TypeError, ValueError):
            pass  # np.asarray decides, with its own error text
    if msgs is None:
        msgs = np.asarray(messages)
        if msgs.ndim != 1 or (msgs.size and msgs.dtype.kind not in "iu"):
            raise ValidationError("messages must be a flat sequence of integers")
        msgs = msgs.astype(np.int64, copy=False)
    sizes = [c.out_size for c in rule.channels]
    g = len(sizes)
    # bincount allocates as many entries as the largest message: at most 256
    # for bytes, and an int64 array is scanned both ways first to bound it.
    # A group's count vector longer than its channel's outputs then holds a
    # message out of range for that group
    counts = []
    if msgs.dtype == np.uint8 or not msgs.size or (
            msgs.min() >= 0 and msgs.max() < max(sizes)):
        counts = [np.bincount(msgs[i::g], minlength=d) for i, d in enumerate(sizes)]
    if len(counts) < g or any(c.size > d for c, d in zip(counts, sizes)):
        sizes = np.resize(sizes, msgs.size)  # round robin: the first bad user
        bad = np.flatnonzero((msgs < 0) | (msgs >= sizes))
        raise ValidationError(f"message {msgs[bad[0]]} out of range for user {bad[0]}")
    llr = [decision.message_llr(c, p, q) for c in rule.channels]
    return "P" if decision.llr_statistic(counts, llr) >= 0 else "Q"


@dataclass(frozen=True)
class SimulationReport:
    n: int
    trials: int
    error_p: float            # P(decide Q | truth P-branch)
    error_q: float            # P(decide P | truth Q-branch)
    error_sum_estimate: float
    ci_halfwidth: float
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def _group_sizes(rule: TestRule, n: int) -> list[int]:
    g = len(rule.channels)
    return [(n - i + g - 1) // g for i in range(g)]


def _simulate_branch(sizes: list[int], truths: list[np.ndarray], llr: list[np.ndarray],
                     trials: int, rng: np.random.Generator) -> np.ndarray:
    """LRT statistics for `trials` runs in which channel group g has sizes[g]
    users and LLR table llr[g]. Its message counts are multinomial draws from
    truths[g], the group's image of the sampled law, which matches per-user
    sampling exactly (users are iid within a group)."""
    # a generator, so only one group's counts are held at a time
    counts = (rng.multinomial(n_g, t, size=trials) for n_g, t in zip(sizes, truths))
    return decision.trial_statistics(counts, llr)


def simulate_error(
    rule: TestRule,
    p: Distribution,
    q: Distribution,
    n: int,
    trials: int = 20000,
    seed: int = 0,
    p_sampler: Distribution | None = None,
    q_sampler: Distribution | None = None,
) -> SimulationReport:
    """Estimate the total error of the LRT rule at sample size n.

    Runs a P-branch (sampling from `p_sampler`, default p; wrong = decide Q)
    and a Q-branch (sampling from `q_sampler`, default q; wrong = decide P)
    and sums the two error frequencies.
    """
    n, trials, seed = _count("n", n), _count("trials", trials), _count("seed", seed, 0, False)
    groups = [(c, n_g) for c, n_g in zip(rule.channels, _group_sizes(rule, n)) if n_g]
    sizes = [n_g for _, n_g in groups]
    llr = [decision.message_llr(c, p, q) for c, _ in groups]
    samplers = (p if p_sampler is None else p_sampler, q if q_sampler is None else q_sampler)
    for dist in samplers:
        _check_channel_input(rule.channels[0], dist.k)
    stacked = np.stack([dist.probs for dist in samplers])
    images = [_push(c.matrix, stacked) for c, _ in groups]  # rows: the P and Q samplers'
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]
    stats_p = _simulate_branch(sizes, [im[0] for im in images], llr, trials, rngs[0])
    stats_q = _simulate_branch(sizes, [im[1] for im in images], llr, trials, rngs[1])
    err_p = float(np.count_nonzero(stats_p < 0)) / trials
    err_q = float(np.count_nonzero(stats_q >= 0)) / trials
    var = err_p * (1 - err_p) / trials + err_q * (1 - err_q) / trials
    return SimulationReport(
        n=n,
        trials=trials,
        error_p=err_p,
        error_q=err_q,
        error_sum_estimate=err_p + err_q,
        ci_halfwidth=_Z95 * math.sqrt(var),
        seed=seed,
    )


def scheffe_channel(p: Distribution, q: Distribution) -> Channel:
    """Binary indicator of the set A = {x : p(x) >= q(x)}; output 0 reports
    membership in A, so it preserves total variation exactly."""
    _check_same_alphabet(p, q)
    in_a = p.probs >= q.probs
    m = np.vstack([in_a.astype(float), (~in_a).astype(float)])
    return Channel(m)


def empirical_sample_complexity(
    rule_factory: Callable[[int], TestRule],
    p: Distribution,
    q: Distribution,
    trials: int = 20000,
    seed: int = 0,
    budget: float = DEFAULT_ERROR_BUDGET,
    n_max: int = 1_000_000,
) -> int:
    """The n where doubling from 1, then bisection, stop: n meets `budget` (estimated
    total error plus CI half-width) and n - 1 does not. Each n has its own Monte Carlo
    seed, so acceptance need not be monotone: a smaller n may meet the budget too, and
    the answer can move with `n_max`. Deterministic given `seed`."""
    trials, n_max = _count("trials", trials), _count("n_max", n_max)
    seed = _count("seed", seed, 0, False)
    if not budget >= 0:
        raise ValidationError(f"budget must be at least 0, got {budget!r}")

    def accept(n: int) -> bool:
        run_seed = int(np.random.SeedSequence((seed, n)).generate_state(1)[0])
        rep = simulate_error(rule_factory(n), p, q, n, trials=trials, seed=run_seed)
        return rep.error_sum_estimate + rep.ci_halfwidth <= budget

    n = 1
    if accept(n):
        return n
    while True:
        if n >= n_max:
            raise NonConvergenceError(f"no acceptable n found up to {n_max}")
        lo, n = n, min(n * 2, n_max)  # n_max itself is the last probe
        if accept(n):
            break
    hi = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accept(mid):
            hi = mid
        else:
            lo = mid
    return hi
