"""The decision kernel shared by the simulator, the referee, the robust
referee and the tournaments: per-message log-likelihood ratios (LLRs) and
the LRT decision on message counts. A leaf: it imports only `core`.

The statistic is defined here, once: within each channel group the products
count * LLR are added left to right in message order, an unsent message
adding 0 even where its LLR is infinite, and the group subtotals are added
in group order. The first hypothesis (P, or player i of game (i, j)) wins
unless the total is below 0, so ties and +inf + -inf (NaN) go to it.
Callers pick the shape: `prefers_first` on one count vector per group (the
referees, a knockout game), `trials_prefer_first` on stacks of trials (the
simulator, the round robin); every trial decides as `prefers_first` would.

`message_llr` memoizes its tables by the identity of (channel, p, q): a
referee asked about many message vectors under one rule and pair builds
each table once. The tables are read-only, and the memo is bounded: it
keeps the latest `_MEMO_CAP` triples and drops the oldest first."""

from __future__ import annotations

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


def prefers_first(counts: Iterable[np.ndarray], llr: Iterable[np.ndarray]) -> bool:
    """The LRT decision on one count vector per channel group: True for the
    first hypothesis. Summed on Python floats, skipping unsent messages."""
    total = 0.0
    for c, lg in zip(counts, llr):
        group = 0.0
        for ci, li in zip(c.tolist(), lg.tolist(), strict=True):
            if ci > 0:
                group += ci * li
        total += group
    return not total < 0


def trials_prefer_first(counts: Iterable[np.ndarray], llr: Iterable[np.ndarray]) -> np.ndarray:
    """`prefers_first` of every trial, as a bool array: the leading axes of
    counts[g] index trials, and llr[g] is one table for all trials (the
    simulator) or one per trial, with those axes too (a round robin's games).
    The same sums, column by column: an unsent message adds 0.0 where the
    group's table holds an infinite LLR, and c * LLR = +-0.0 elsewhere,
    which leaves every decision as it is."""
    total = 0.0
    with np.errstate(invalid="ignore"):  # 0 * inf, and +inf + -inf
        for c, lg in zip(counts, llr):
            if c.shape[-1] != lg.shape[-1]:
                raise ValueError(f"{c.shape[-1]} message counts for {lg.shape[-1]} LLRs")
            guard = not np.isfinite(lg).all()
            group = 0.0  # an array from the first column on, then added into in place
            for j in range(c.shape[-1]):
                term = c[..., j] * lg[..., j]
                group += np.where(c[..., j] > 0, term, 0.0) if guard else term
            total = total + group
    return ~np.less(total, 0)
