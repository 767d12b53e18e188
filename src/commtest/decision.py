"""The decision kernel shared by the simulator, the referee, the robust
referee and the tournaments: per-message log-likelihood ratios (LLRs) and
the LRT statistic on message counts. A leaf: it imports only `core`.

Callers pick the statistic for their shape: `llr_statistic` on one count
vector per channel group (the referees, a knockout game), `trial_statistics`
on stacks of trials (the simulator, the round robin).

`message_llr` memoizes its tables by the identity of (channel, p, q): a
referee asked about many message vectors under one rule and pair builds
each table once. The tables are read-only, and the memo is bounded: it
keeps the latest `_MEMO_CAP` triples and drops the oldest first."""

from __future__ import annotations

import math
import threading
from typing import Iterable

import numpy as np

from .core import Channel, Distribution, _check_channel_input, _push


_MEMO_CAP = 64
# (id(channel), id(p), id(q)) -> (channel, p, q, table), oldest first
_memo: dict[tuple[int, int, int], tuple[Channel, Distribution, Distribution, np.ndarray]] = {}
_memo_lock = threading.Lock()  # held by writers; a lookup is one dict.get


def message_llr(channel: Channel, p: Distribution, q: Distribution) -> np.ndarray:
    """Per-message log((Tp)_y / (Tq)_y): +inf or -inf where one image is 0,
    and 0 for messages impossible under both. Read-only, and memoized by
    identity: a call with the same three objects as one of the last
    `_MEMO_CAP` new triples returns that call's table. Channels and
    distributions are frozen, so a table never goes stale; each entry holds
    strong references to its three objects, so their ids cannot be recycled
    while it lives, and a hit is always on the same three objects."""
    key = (id(channel), id(p), id(q))
    entry = _memo.get(key)
    if entry is not None:
        return entry[3]
    _check_channel_input(channel, p.k)
    _check_channel_input(channel, q.k)
    tp, tq = _push(channel.matrix, np.stack([p.probs, q.probs]))
    neither = (tp == 0) & (tq == 0)
    with np.errstate(divide="ignore"):
        table = np.log(np.where(neither, 1.0, tp)) - np.log(np.where(neither, 1.0, tq))
    table.setflags(write=False)
    with _memo_lock:
        _memo[key] = (channel, p, q, table)
        while len(_memo) > _MEMO_CAP:
            del _memo[next(iter(_memo))]
    return table


def llr_statistic(counts: Iterable[np.ndarray], llr: Iterable[np.ndarray]) -> float:
    """The referee's statistic on one count vector per channel group: the sum
    over groups g of counts[g] . llr[g]. An unsent message adds 0 even where
    its LLR is infinite; a total of +inf + (-inf) is NaN and counts as 0, a
    tie, which goes to P like every tie.

    In Python floats, each group summed in the order of numpy's row sum of
    np.where(c > 0, c * lg, 0.0): a row of `trial_statistics`, bit for bit."""
    total = 0.0
    for c, lg in zip(counts, llr):
        terms = [ci * li if ci > 0 else 0.0
                 for ci, li in zip(c.tolist(), lg.tolist(), strict=True)]
        total += _numpy_sum_order(terms or [0.0])
    return 0.0 if math.isnan(total) else total


def trial_statistics(counts: Iterable[np.ndarray], llr: Iterable[np.ndarray]) -> np.ndarray:
    """`llr_statistic` of every trial, as an array: the leading axes of
    counts[g] index trials, and llr[g] is one table for all trials (the
    simulator) or one per trial, with those axes too (a round robin's games)."""
    total = 0.0
    with np.errstate(invalid="ignore"):  # 0 * inf, and +inf + -inf
        for c, lg in zip(counts, llr):
            if lg.ndim > 1:  # numpy's row sums
                total = total + np.where(c > 0, c * lg, 0.0).sum(axis=-1)
            else:  # the same floats, a shared table added column by column
                # c = 0 against a negative finite LLR gives -0.0 here, not
                # +0.0: that can flip only the sign of a zero sum, and adding
                # it to total, which starts at +0.0, makes every zero +0.0
                terms = [col * v if math.isfinite(v) else np.where(col > 0, v, 0.0)
                         for col, v in zip(np.moveaxis(c, -1, 0), lg, strict=True)]
                total = total + _numpy_sum_order(terms)
    return np.where(np.isnan(total), 0.0, total)


def _numpy_sum_order(terms: list) -> np.ndarray | float:
    """terms[0] + ... + terms[-1], elementwise for arrays (adding into them
    in place), in the order of numpy's pairwise `sum` along a contiguous
    axis (Higham 1993): fewer than 8 terms left to right, up to 128 in 8
    strided accumulators, longer runs split in two at a multiple of 8 below
    the middle."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum_order(terms[:half]) + _numpy_sum_order(terms[half:])
    if n < 8:
        acc, tail = terms[0], terms[1:]
    else:
        r, tail = terms[:8], terms[n - n % 8:]
        for i in range(8, n - n % 8):
            r[i % 8] += terms[i]
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in tail:
        acc += t
    return acc
