"""The four benchmark workloads.

Each workload does its set-up in the constructor (inputs drawn from the run
seed, channel designs the timed requests rely on, one warm-up round) and
then hands out batches: a fixed list of requests whose inputs are drawn from
(seed, batch index). A request is one call sequence into the public commtest
API, wrapped in `Tracer.call` spans named after the module it enters, plus a
check of its output against `reference`. Work counts are derived from the
inputs and outputs by the benchmark itself, never read from the library.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np

import commtest as ct
from commtest import verify as ct_verify

import reference as ref
from spans import Tracer

# Exhaustive oracles run only where the benchmark's own count of their
# search space is at most this many candidate sets. The library refuses
# above 10**6; this lower cap keeps one request under half a second.
ORACLE_CAP = 2500


@dataclass
class Request:
    kind: str
    fn: Callable[[], Any]
    # Returns None when the output is right, else the reason it is not.
    check: Callable[[Any], str | None]


@dataclass
class Batch:
    requests: list[Request]
    counts: Counter = field(default_factory=Counter)


def _fail(cond: bool, why: str) -> str | None:
    return None if cond else why


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


# --------------------------------------------------------------------------
# design: channel design and certification on fresh instances

# (k, D, kind): kind "zeros" puts zero masses in p and q (infinite and zero
# likelihood ratios), "ties" appends quarter-scaled copies of atoms, which
# tie their ratio classes (and their reverse-Markov values) exactly in
# floating point. The k > 24 rows are designer-only: their search spaces
# exceed ORACLE_CAP. With fifteen rows the batch p50 and p90 fall in the
# middle of a row's band, and the rows are sized so that several cost
# about the same near the median (k = 12, 13 and 40) and near the 90th
# percentile (k = 14 at D = 8, and k = 20). Each percentile then pools the
# samples of several rows, not of one.
DESIGN_SHAPES = (
    (2, 2, "plain"), (4, 3, "zeros"), (5, 2, "plain"), (6, 4, "ties"),
    (12, 3, "plain"), (13, 3, "zeros"), (8, 2, "plain"), (12, 2, "ties"),
    (14, 8, "zeros"), (16, 3, "plain"), (18, 4, "ties"), (20, 4, "plain"),
    (24, 4, "zeros"), (40, 4, "plain"), (64, 8, "ties"),
)
DIVERGENCES = ("hellinger", "tv", "sym_kl", "triangular", "sym_chi_1.5")


def design_pair(rng: np.random.Generator, k: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    if kind == "ties":
        base = k - k // 3
        p, q = rng.dirichlet(np.ones(base)), rng.dirichlet(np.ones(base))
        p = np.concatenate([p, p[: k - base] / 4.0])
        q = np.concatenate([q, q[: k - base] / 4.0])
    else:
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        if kind == "zeros":
            q[0] = 0.0
            p[1] = 0.0
            if k >= 6:
                p[2] = q[2] = 0.0
    return p / p.sum(), q / q.sum()


def revmarkov_atoms(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y = (sqrt p - sqrt q)^2 / (p + q) under the mixture (p + q) / 2, so
    E[Y] = d_h^2 / 2; values lie in [0, 1], below beta = 2."""
    s = (p > 0) | (q > 0)
    y = (np.sqrt(p[s]) - np.sqrt(q[s])) ** 2 / (p[s] + q[s])
    values, inv = np.unique(y, return_inverse=True)
    masses = np.zeros(values.size)
    np.add.at(masses, inv, (p[s] + q[s]) / 2.0)
    return values, masses


class DesignWorkload:
    name = "design"

    def __init__(self, seed: int, tracer: Tracer, root: Path) -> None:
        self.seed = seed
        self.t = tracer.call
        self.specs = {name: ct.builtin_fdiv(name) for name in DIVERGENCES}
        warm = self.batch(-1, DESIGN_SHAPES[:3])
        for r in warm.requests:
            r.fn()

    def batch(self, b: int, shapes=DESIGN_SHAPES) -> Batch:
        rng = np.random.default_rng([self.seed, 1, b + 1])
        batch = Batch([])
        for k, d, kind in shapes:
            batch.requests.append(self._request(rng, k, d, kind, batch.counts))
        return batch

    def _request(self, rng, k, d, kind, counts: Counter) -> Request:
        t, specs = self.t, self.specs
        hel, skl = specs["hellinger"], specs["sym_kl"]
        pa, qa = design_pair(rng, k, kind)
        p, q = ct.Distribution(pa), ct.Distribution(qa)
        pa, qa = p.probs, q.probs
        values, masses = revmarkov_atoms(pa, qa)
        rv = ct.DiscreteRV(values, masses, 2.0)
        eps = float(rng.uniform(0.1, 0.8)) * ref.f_divergence("tv", pa, qa) / 2.0
        setup = ct.ContaminationSetup(p, q, eps)
        oracle_sets = ref.subsets(ref.ratio_cuts(pa, qa), d)
        oracle_grids = ref.subsets(int(np.count_nonzero(values > 0)), d)
        run_oracle = oracle_sets <= ORACLE_CAP
        run_grids = oracle_grids <= ORACLE_CAP
        counts["quantizer.oracle_sets"] += oracle_sets if run_oracle else 0
        counts["revmarkov.oracle_grids"] += oracle_grids if run_grids else 0

        def fn():
            out = {"fdiv": {n: t("core.f_divergence", ct.f_divergence, s, p, q)
                            for n, s in specs.items()}}
            out["hel"] = t("quantizer.design_hellinger", ct.design_hellinger_channel, p, q, d)
            out["skl"] = t("quantizer.design_fdiv", ct.design_fdiv_channel, skl, p, q, d)
            tp = t("core.apply_channel", ct.apply_channel, out["hel"].channel, p)
            tq = t("core.apply_channel", ct.apply_channel, out["hel"].channel, q)
            out["hel_t"] = t("core.f_divergence", ct.f_divergence, hel, tp, tq)
            if run_oracle:
                out["oracle"] = t("quantizer.oracle", ct.brute_force_threshold_channel,
                                  hel, p, q, d)
            out["best"] = t("revmarkov.best", ct.reverse_markov_best, rv, d)
            out["floor"] = t("revmarkov.guarantee", ct.guarantee, rv, d)
            if run_grids:
                out["grid"] = t("revmarkov.oracle", ct.brute_force_revmarkov, rv, d)
            out["lfd"] = t("robust.lfd", ct.huber_lfd, setup)
            out["robust"] = t("robust.design", ct.design_robust_channel, setup, d)
            return out

        def check(out) -> str | None:
            return _first(
                *(_fail(ref.close(out["fdiv"][n], ref.f_divergence(n, pa, qa)),
                        f"f_divergence {n}") for n in DIVERGENCES),
                self._check_design("hellinger", out["hel"], pa, qa),
                self._check_design("sym_kl", out["skl"], pa, qa),
                _fail(ref.close(out["hel_t"], ref.f_divergence(
                    "hellinger", ref.push(out["hel"].channel.matrix, pa),
                    ref.push(out["hel"].channel.matrix, qa))), "f_divergence of images"),
                self._check_oracle(out, pa, qa) if run_oracle else None,
                self._check_revmarkov(out, values, masses, d),
                self._check_robust(out, pa, qa, eps),
            )

        return Request("design", fn, check)

    @staticmethod
    def _check_design(name, res, pa, qa) -> str | None:
        before, after, mine = ref.preservation(name, res.channel.matrix, pa, qa)
        return _first(
            _fail(after <= before * (1 + ref.REL_TOL) + 1e-15, f"{name}: I_f(Tp,Tq) > I_f(p,q)"),
            _fail(res.ratio_achieved <= res.bound, f"{name}: ratio above bound"),
            _fail(res.ratio_achieved >= 1 - ref.REL_TOL, f"{name}: ratio below 1"),
            _fail(ref.close(res.ratio_achieved, mine), f"{name}: ratio disagrees"),
        )

    @staticmethod
    def _check_oracle(out, pa, qa) -> str | None:
        o, h = out["oracle"].ratio_achieved, out["hel"].ratio_achieved
        mine = ref.preservation("hellinger", out["oracle"].channel.matrix, pa, qa)[2]
        return _first(
            _fail(1 - ref.REL_TOL <= o <= h + ref.REL_TOL * max(1.0, h), "oracle above designer"),
            _fail(ref.close(o, mine), "oracle ratio disagrees"),
        )

    @staticmethod
    def _check_revmarkov(out, values, masses, d) -> str | None:
        best, floor = out["best"], ref.revmarkov_guarantee(values, masses, 2.0, d)
        reasons = [
            _fail(ref.close(best.achieved, ref.revmarkov_objective(values, masses, best.nus)),
                  "reverse_markov_best objective"),
            _fail(best.achieved >= floor * (1 - ref.REL_TOL), "reverse_markov_best below floor"),
            _fail(ref.close(out["floor"], floor), "guarantee disagrees"),
        ]
        if "grid" in out:
            grid = out["grid"]
            reasons += [
                _fail(ref.close(grid.achieved, ref.revmarkov_objective(values, masses, grid.nus)),
                      "brute_force_revmarkov objective"),
                _fail(grid.achieved >= best.achieved * (1 - ref.REL_TOL), "oracle below best"),
            ]
        return _first(*reasons)

    @staticmethod
    def _check_robust(out, pa, qa, eps) -> str | None:
        lfd = out["lfd"]
        lfd2, design = out["robust"]
        return _first(
            _fail(ref.f_divergence("tv", pa, lfd.p_lfd.probs) <= eps + 1e-9, "TV(p, p_lfd) > eps"),
            _fail(ref.f_divergence("tv", qa, lfd.q_lfd.probs) <= eps + 1e-9, "TV(q, q_lfd) > eps"),
            _fail(np.array_equal(lfd.p_lfd.probs, lfd2.p_lfd.probs), "robust design LFD differs"),
            _fail(design.ratio_achieved <= design.bound, "robust design above bound"),
        )

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


# --------------------------------------------------------------------------
# simulate: Monte Carlo error, referee decisions and the sample-size search

SIM_NS = (10, 1_000, 100_000)
SIM_DS = (2, 4, 8)
SIM_GROUPS = (1, 4)
SIM_TRIALS = 20_000
REFEREE_USERS = 1_000
# Of each of lrt_decide and robust_decide per batch. Referees are then 52 of
# a batch's 71 requests, so req_p50_ms and req_p90_ms both fall inside the
# referees' latency band rather than on an edge between kinds of request.
REFEREES = 26
SEARCH_TRIALS = 20_000
SEARCH_BUDGET = 0.1
ROUND_ROBIN_SPECS = ("hellinger", "tv", "sym_kl", "triangular")
SIM_PAIR_SEED = 2


class SimulateWorkload:
    name = "simulate"

    def __init__(self, seed: int, tracer: Tracer, root: Path) -> None:
        self.seed = seed
        self.t = tracer.call
        # The pair under test is the same for every seed: the cost of a
        # multinomial draw depends on the message law, and a pair drawn per
        # seed would move the latency bands that req_p50_ms and req_p90_ms
        # sit in. The seed draws the Monte Carlo seeds, the referees'
        # messages and the searched Bernoulli pairs.
        rng = np.random.default_rng(SIM_PAIR_SEED)
        q = rng.dirichlet(np.full(16, 2.0))
        z = rng.standard_normal(16)
        p = q * (1.0 + 0.3 * z / np.abs(z).max())
        self.p, self.q = ct.Distribution(p / p.sum()), ct.Distribution(q)
        self.rules = {}
        for d in SIM_DS:
            chans = [ct.design_fdiv_channel(ct.builtin_fdiv(s), self.p, self.q, d).channel
                     for s in ROUND_ROBIN_SPECS]
            for g in SIM_GROUPS:
                self.rules[d, g] = ct.TestRule(chans[:g])
        eps = 0.2 * ref.f_divergence("tv", self.p.probs, self.q.probs) / 2.0
        self.lfd, design = ct.design_robust_channel(
            ct.ContaminationSetup(self.p, self.q, eps), 4)
        self.robust_channel = design.channel
        self.identity_rule = ct.TestRule([ct.Channel.identity(2)])
        warm = {}
        for r in self.batch(-1).requests:
            warm.setdefault(r.kind, r)
        for r in warm.values():  # one request of each kind
            r.fn()

    def _messages(self, rng, channels, truth: np.ndarray) -> np.ndarray:
        x = rng.choice(truth.size, size=REFEREE_USERS, p=truth)
        labels = [np.argmax(c.matrix, axis=0) for c in channels]
        g = len(channels)
        return np.array([labels[i % g][xi] for i, xi in enumerate(x)])

    def batch(self, b: int) -> Batch:
        rng = np.random.default_rng([self.seed, 2, b + 1])
        batch = Batch([])
        for d in SIM_DS:
            for g in SIM_GROUPS:
                for n in SIM_NS:
                    batch.requests.append(
                        self._simulate(self.rules[d, g], n, int(rng.integers(2**31))))
                    batch.counts["testing.messages_simulated"] += 2 * n * SIM_TRIALS
        keys = list(self.rules)
        for j in range(REFEREES):
            rule = self.rules[keys[j % len(keys)]]
            truth = (self.p if j % 2 == 0 else self.q).probs
            msgs = self._messages(rng, rule.channels, truth)
            batch.requests.append(self._referee(rule, msgs))
            batch.counts["testing.referee_messages"] += REFEREE_USERS
        for j in range(REFEREES):
            truth = (self.p if j % 2 == 0 else self.q).probs
            msgs = self._messages(rng, [self.robust_channel], truth)
            batch.requests.append(self._robust(msgs))
        a, c = rng.uniform(0.6, 0.8), rng.uniform(0.2, 0.4)
        batch.requests.append(self._search(a, c, int(rng.integers(2**31)), batch.counts))
        return batch

    def _simulate(self, rule, n: int, seed: int) -> Request:
        p, q = self.p, self.q

        def fn():
            return self.t("testing.simulate", ct.simulate_error, rule, p, q, n,
                          trials=SIM_TRIALS, seed=seed)

        def check(rep) -> str | None:
            reasons = [
                _fail(rep.n == n and rep.trials == SIM_TRIALS, "echoed n/trials"),
                _fail(0 <= rep.error_p <= 1 and 0 <= rep.error_q <= 1, "error outside [0, 1]"),
                _fail(rep.error_sum_estimate == rep.error_p + rep.error_q, "error sum"),
            ]
            if len(rule.channels) == 1 and rule.channels[0].out_size == 2:
                m = rule.channels[0].matrix
                ep, eq = ref.exact_binary_error(ref.push(m, p.probs), ref.push(m, q.probs), n)
                reasons.append(_fail(ref.mc_agrees(rep.error_sum_estimate, ep, eq, SIM_TRIALS),
                                     f"MC error {rep.error_sum_estimate} vs exact {ep + eq}"))
            return _first(*reasons)

        return Request("simulate", fn, check)

    def _referee(self, rule, msgs: np.ndarray) -> Request:
        p, q = self.p, self.q
        llrs = [ref.llr_table(ref.push(c.matrix, p.probs), ref.push(c.matrix, q.probs))
                for c in rule.channels]
        want = ref.lrt_reference(llrs, msgs)
        messages = msgs.tolist()

        def fn():
            return self.t("testing.referee", ct.lrt_decide, p, q, rule, messages)

        return Request("referee", fn, lambda got: _fail(want is None or got == want,
                                                        f"lrt_decide {got} != {want}"))

    def _robust(self, msgs: np.ndarray) -> Request:
        ch, lfd = self.robust_channel, self.lfd
        llrs = [ref.llr_table(ref.push(ch.matrix, lfd.p_lfd.probs),
                              ref.push(ch.matrix, lfd.q_lfd.probs))]
        want = ref.lrt_reference(llrs, msgs)
        messages = msgs.tolist()

        def fn():
            return self.t("robust.decide", ct.robust_decide, ch, lfd, messages)

        return Request("robust_referee", fn, lambda got: _fail(
            want is None or got == want, f"robust_decide {got} != {want}"))

    def _search(self, a: float, c: float, seed: int, counts: Counter) -> Request:
        p, q = ct.Distribution([1 - a, a]), ct.Distribution([1 - c, c])

        def factory(n: int):
            counts["testing.search_probes"] += 1
            return self.identity_rule

        def fn():
            return self.t("testing.search", ct.empirical_sample_complexity, factory, p, q,
                          trials=SEARCH_TRIALS, seed=seed, budget=SEARCH_BUDGET)

        def check(n_hat) -> str | None:
            ep, eq = ref.exact_binary_error(p.probs, q.probs, n_hat)
            ok = ep + eq <= SEARCH_BUDGET + ref.mc_band(ep, eq, SEARCH_TRIALS)
            return _fail(n_hat >= 1 and ok, f"search n={n_hat}: exact error {ep + eq}")

        return Request("search", fn, check)

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


# --------------------------------------------------------------------------
# mary: tournaments, identical-channel design and the squeeze verifier on
# Hadamard families that recur across requests

MARY_MS = (4, 7, 8)  # k = 8, 8, 16
MARY_DS = (2, 3)
TOURNAMENT_TRUTHS = 3  # per family, flavor and batch
SQUEEZE_SAMPLES = 64  # random stochastic channels on top of 2^k at k = 8
SQUEEZE_MASKS = 8  # deterministic channels the benchmark scores itself
WIN_RATIO_FLOOR = 0.85


class MaryWorkload:
    name = "mary"

    def __init__(self, seed: int, tracer: Tracer, root: Path) -> None:
        self.seed = seed
        self.t = tracer.call
        rng = np.random.default_rng([seed, 3])
        self.families = {m: ct.hadamard_instance(m, float(rng.uniform(0.35, 0.5)))
                         for m in MARY_MS}
        self.games = Counter()  # (m, d) -> tournaments, and wins under (m, d, "won")
        warm = ct.hadamard_instance(4, 0.4)
        ct.tournament_adaptive(warm, 2, ct.counts_sampler(warm.dists[0]), seed=seed)
        ct.identical_channel_design(warm, 2, seed=seed)
        ct.verify_identical_d2_bound(warm)

    def batch(self, b: int) -> Batch:
        rng = np.random.default_rng([self.seed, 3, b + 1])
        batch = Batch([])
        for m, fam in self.families.items():
            for d in MARY_DS:
                for adaptive in (False, True):
                    for r in range(TOURNAMENT_TRUTHS):
                        truth = (TOURNAMENT_TRUTHS * b + r) % m
                        batch.requests.append(self._tournament(
                            fam, d, truth, adaptive, int(rng.integers(2**31)), batch.counts))
                batch.requests.append(self._identical(fam, d, int(rng.integers(2**31))))
        for m, fam in self.families.items():
            samples = SQUEEZE_SAMPLES if fam.k <= 8 else 0
            masks = rng.integers(0, 2, size=(SQUEEZE_MASKS, fam.k))
            batch.requests.append(self._squeeze(fam, samples, int(rng.integers(2**31)), masks))
            batch.counts["mary.squeeze_channels"] += 2**fam.k + samples
        return batch

    def _tournament(self, fam, d, truth, adaptive, seed, counts: Counter) -> Request:
        run = ct.tournament_adaptive if adaptive else ct.tournament_nonadaptive

        def fn():
            return self.t("mary.tournament", run, fam, d, ct.counts_sampler(fam.dists[truth]),
                          seed=seed)

        def check(tr) -> str | None:
            m = fam.m
            pairs = [(g.i, g.j) for g in tr.games]
            if adaptive:
                champ, chain = 0, []
                for g in tr.games:
                    chain.append((champ, g.j))
                    champ = g.winner
                shape_ok = pairs == chain and tr.winner == champ
            else:
                shape_ok = pairs == list(combinations(range(m), 2))
            won = tr.winner == truth and not tr.ambiguous
            self.games[m, d] += 1
            self.games[m, d, "won"] += won
            counts["mary.games"] += len(tr.games)
            counts["mary.game_samples"] += sum(g.samples for g in tr.games)
            return _first(
                _fail(shape_ok, "tournament bracket"),
                _fail(all(g.winner in (g.i, g.j) for g in tr.games), "game winner not a player"),
                _fail(tr.total_samples == sum(g.samples for g in tr.games), "total_samples"),
                _fail(0 <= tr.winner < m, "winner out of range"),
            )

        return Request("tournament", fn, check)

    def _identical(self, fam, d: int, seed: int) -> Request:
        probs = np.vstack([x.probs for x in fam.dists])

        def fn():
            return self.t("mary.identical", ct.identical_channel_design, fam, d, seed=seed)

        def check(out) -> str | None:
            channel, score = out
            m = channel.matrix
            images = np.vstack([ref.push(m, row) for row in probs])
            return _first(
                _fail(m.shape == (d, fam.k) and np.allclose(m.sum(axis=0), 1.0), "channel shape"),
                _fail(score > 0 and ref.close(score, ref.min_pairwise_tv(images)),
                      "min pairwise output TV disagrees"),
            )

        return Request("identical", fn, check)

    def _squeeze(self, fam, samples: int, seed: int, masks: np.ndarray) -> Request:
        probs = np.vstack([x.probs for x in fam.dists])

        def fn():
            return self.t("mary.squeeze", ct.verify_identical_d2_bound, fam,
                          channel_samples=samples, seed=seed)

        def check(rep) -> str | None:
            top = max(ref.hellinger_distance(probs[i], probs[j])
                      for i, j in combinations(range(fam.m), 2))
            floor = max(ref.min_pairwise_binary_hellinger(probs, mask) for mask in masks)
            return _first(
                _fail(rep.sup_min_hellinger <= top + 1e-12, "sup above max pairwise Hellinger"),
                _fail(rep.sup_min_hellinger >= floor - 1e-12, "sup below a deterministic channel"),
                _fail(ref.close(rep.max_pairwise_hellinger, top), "max pairwise Hellinger"),
            )

        return Request("squeeze", fn, check)

    def win_ratio(self) -> float:
        played = sum(v for key, v in self.games.items() if len(key) == 2)
        won = sum(v for key, v in self.games.items() if len(key) == 3)
        return won / played if played else 0.0

    def finish(self) -> tuple[int, list[str]]:
        """Families winning fewer than WIN_RATIO_FLOOR of their tournaments
        count their lost tournaments as failed requests."""
        failed, reasons = 0, []
        for key, played in self.games.items():
            if len(key) != 2:
                continue
            won = self.games[(*key, "won")]
            if won < WIN_RATIO_FLOOR * played:
                failed += played - won
                reasons.append(f"family M={key[0]} D={key[1]} won {won}/{played}")
        return failed, reasons


# --------------------------------------------------------------------------
# cli: one `python -m commtest.cli` process per request


def _same(got, want) -> bool:
    """A JSON value from the CLI equals the in-process value."""
    if isinstance(want, (list, tuple, np.ndarray)):
        want = list(want)
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want))
    if isinstance(want, float) and math.isinf(want):
        return got == ("inf" if want > 0 else "-inf")
    if isinstance(want, (float, int, np.floating, np.integer)) and not isinstance(want, bool):
        return isinstance(got, (int, float)) and ref.close(float(got), float(want), 1e-12)
    return got == want


class CliWorkload:
    name = "cli"

    def __init__(self, seed: int, tracer: Tracer, root: Path) -> None:
        self.seed = seed
        self.t = tracer.call
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._run([sys.executable, "-c", "import commtest.cli"])

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)

    def batch(self, b: int) -> Batch:
        rng = np.random.default_rng([self.seed, 4, b + 1])
        # In-process references parse the same JSON text the CLI receives:
        # a distribution renormalized twice can differ in its last bit, and
        # the designer's choice is not continuous in such changes.
        P, Q = (json.dumps(rng.dirichlet(np.ones(5)).tolist()) for _ in range(2))
        p, q = ct.Distribution(json.loads(P)), ct.Distribution(json.loads(Q))
        eps = float(rng.uniform(0.05, 0.3)) * ct.total_variation(p, q)
        m_eps = float(rng.uniform(0.35, 0.5))
        s = int(rng.integers(2**31))
        truth = b % 4
        pq = ["--p", P, "--q", Q]
        fam = ["--m", "4", "--eps", repr(m_eps)]
        calls = [
            (["divergence", *pq, "--spec", "sym_kl"], lambda: self._divergence(p, q)),
            (["quantize", *pq, "--d", "3"], lambda: ct.design_hellinger_channel(p, q, 3).to_json()),
            (["quantize", *pq, "--d", "3", "--spec", "sym_kl"],
             lambda: ct.design_fdiv_channel(ct.builtin_fdiv("sym_kl"), p, q, 3).to_json()),
            (["quantize", *pq, "--d", "2", "--oracle"], lambda: ct.brute_force_threshold_channel(
                ct.builtin_fdiv("hellinger"), p, q, 2).to_json()),
            (["simulate", *pq, "--n", "50", "--trials", "2000", "--seed", str(s)],
             lambda: ct.simulate_error(ct.TestRule([ct.design_hellinger_channel(p, q, 2).channel]),
                                       p, q, 50, trials=2000, seed=s).to_json()),
            (["robust-lfd", *pq, "--eps", repr(eps)],
             lambda: ct.huber_lfd(ct.ContaminationSetup(p, q, eps)).to_json()),
            (["robust-design", *pq, "--eps", repr(eps), "--d", "2"], lambda: self._robust(p, q, eps)),
            (["mary", "instance", *fam], lambda: ct.hadamard_instance(4, m_eps).to_json()),
            (["mary", "identical", *fam, "--d", "3", "--seed", str(s)],
             lambda: {"min_pairwise_output_tv": ct.identical_channel_design(
                 ct.hadamard_instance(4, m_eps), 3, seed=s)[1]}),
            (["mary", "tournament", *fam, "--truth", str(truth), "--trials", "3", "--seed", str(s),
              "--adaptive"], lambda: self._tournament(m_eps, truth, s)),
            (["mary", "verify", *fam], lambda: ct.verify_identical_d2_bound(
                ct.hadamard_instance(4, m_eps)).to_json()),
            (["verify", "robust", "--seed", str(s)], lambda: self._suite("robust", s)),
            (["verify", "tightness", "--seed", str(s)], lambda: self._suite("tightness", s)),
        ]
        batch = Batch([self._cli(args, want) for args, want in calls])
        batch.requests.append(self._control("cli.import", "import commtest.cli"))
        batch.requests.append(self._control("cli.interp", "pass"))
        return batch

    @staticmethod
    def _divergence(p, q) -> dict:
        spec = ct.builtin_fdiv("sym_kl")
        return {"f_divergence": ct.f_divergence(spec, p, q), "hellinger_sq": ct.hellinger_sq(p, q),
                "total_variation": ct.total_variation(p, q),
                "hellinger_affinity": ct.hellinger_affinity(p, q)}

    @staticmethod
    def _robust(p, q, eps) -> dict:
        lfd, design = ct.design_robust_channel(ct.ContaminationSetup(p, q, eps), 2)
        return {"lfd": lfd.to_json(), "design": design.to_json()}

    @staticmethod
    def _tournament(m_eps, truth, seed) -> dict:
        fam = ct.hadamard_instance(4, m_eps)
        wins = sum(ct.tournament_adaptive(fam, 2, ct.counts_sampler(fam.dists[truth]),
                                          seed=seed + t).winner == truth for t in range(3))
        return {"wins": wins}

    @staticmethod
    def _suite(name, seed) -> dict:
        checks = ct_verify.run_suite(name, seed=seed)
        return {"passed": all(c.passed for c in checks),
                "checks": [{"name": c.name, "value": c.value} for c in checks]}

    def _cli(self, args: list[str], want: Callable[[], dict]) -> Request:
        span = "verify.suite" if args[0] == "verify" else "cli.call"
        argv = [sys.executable, "-m", "commtest.cli", *args]

        def fn():
            return self.t(span, self._run, argv)

        def check(proc) -> str | None:
            if proc.returncode != 0:
                return f"{' '.join(args[:2])}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            try:
                got = json.loads(proc.stdout)
            except json.JSONDecodeError:
                return f"{' '.join(args[:2])}: output is not JSON"
            return _fail(self._matches(got, want()), f"{' '.join(args[:2])}: differs in-process")

        return Request(span, fn, check)

    @staticmethod
    def _matches(got, want) -> bool:
        """Every number in the in-process result appears unchanged in the CLI output."""
        if isinstance(want, dict):
            return isinstance(got, dict) and all(
                k in got and CliWorkload._matches(got[k], v) for k, v in want.items()
                if k != "r_value")
        if isinstance(want, list) and want and isinstance(want[0], dict):
            return isinstance(got, list) and len(got) == len(want) and all(
                CliWorkload._matches(g, w) for g, w in zip(got, want))
        return _same(got, want)

    def _control(self, span: str, code: str) -> Request:
        argv = [sys.executable, "-c", code]

        def fn():
            return self.t(span, self._run, argv)

        return Request(span, fn, lambda proc: _fail(proc.returncode == 0, f"{code}: exit"))

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


WORKLOADS = {
    "design": DesignWorkload,
    "simulate": SimulateWorkload,
    "mary": MaryWorkload,
    "cli": CliWorkload,
}
