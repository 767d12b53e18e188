"""Command line interface.

Subcommands cover divergence evaluation, channel design, Monte Carlo test
simulation, robust (contaminated) testing, M-ary identification, and the
built-in verification suites. All randomized commands take --seed and embed
it in their JSON output so reruns are byte-identical.

Exit codes: 0 success, 1 invalid input, 2 a guarantee or verification check
failed, 3 a randomized construction exhausted its retry budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import verify
from .core import (
    Channel,
    Distribution,
    apply_channel,
    builtin_fdiv,
    f_divergence,
    hellinger_affinity,
    hellinger_sq,
    total_variation,
)
from .errors import CommtestError, StochasticFailureError, ValidationError
from .mary import (
    SQUEEZE_CONSTANT_LIMIT,
    HypothesisFamily,
    counts_sampler,
    hadamard_instance,
    identical_channel_design,
    jl_sketch_channel,
    min_pairwise_tv_after,
    pairwise_indicator_reduction,
    tournament_adaptive,
    tournament_nonadaptive,
    verify_identical_d2_bound,
)
from .quantizer import (
    brute_force_threshold_channel,
    design_fdiv_channel,
    design_hellinger_channel,
)
from .robust import ContaminationSetup, design_robust_channel, huber_lfd
from .testing import (
    DEFAULT_ERROR_BUDGET,
    TestRule,
    empirical_sample_complexity,
    scheffe_channel,
    simulate_error,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_GUARANTEE = 2
EXIT_STOCHASTIC = 3


def _load_json_arg(text: str):
    """Parse an inline JSON argument, or read it from a file via @path."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _dist_arg(text: str) -> Distribution:
    obj = _load_json_arg(text)
    if isinstance(obj, list):
        return Distribution(obj)
    return Distribution.from_json(obj)


def _channel_arg(text: str) -> Channel:
    obj = _load_json_arg(text)
    if isinstance(obj, list):
        return Channel(obj)
    return Channel.from_json(obj)


def _family_arg(text: str) -> HypothesisFamily:
    return HypothesisFamily.from_json(_load_json_arg(text))


def _write(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj: dict, args) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", args)


def _emit_csv(rows: list[dict], args) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args)


def _finite(x: float) -> float | str:
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


# --------------------------------------------------------------------------
# subcommand handlers


def cmd_divergence(args) -> int:
    p, q = _dist_arg(args.p), _dist_arg(args.q)
    spec = builtin_fdiv(args.spec)
    _emit(
        {
            "spec": spec.name,
            "f_divergence": _finite(f_divergence(spec, p, q)),
            "hellinger_sq": hellinger_sq(p, q),
            "total_variation": total_variation(p, q),
            "hellinger_affinity": hellinger_affinity(p, q),
        },
        args,
    )
    return EXIT_OK


def cmd_quantize(args) -> int:
    p, q = _dist_arg(args.p), _dist_arg(args.q)
    if args.oracle:
        result = brute_force_threshold_channel(builtin_fdiv(args.spec), p, q, args.d)
    elif args.spec == "hellinger":
        result = design_hellinger_channel(p, q, args.d)
    else:
        result = design_fdiv_channel(builtin_fdiv(args.spec), p, q, args.d)
    obj = result.to_json()
    obj["spec"] = args.spec
    obj["ratio_achieved"] = _finite(obj["ratio_achieved"])
    obj["bound"] = _finite(obj["bound"])
    if math.isnan(obj["r_value"]):
        obj["r_value"] = None
    _emit(obj, args)
    if not args.oracle and not result.ratio_achieved <= result.bound:
        return EXIT_GUARANTEE
    return EXIT_OK


def _build_rule(args, p: Distribution, q: Distribution) -> TestRule:
    if args.channel is not None:
        return TestRule([_channel_arg(args.channel)])
    if args.rule == "scheffe":
        return TestRule([scheffe_channel(p, q)])
    return TestRule([design_hellinger_channel(p, q, args.d).channel])


def cmd_simulate(args) -> int:
    p, q = _dist_arg(args.p), _dist_arg(args.q)
    if args.search:
        if args.format != "json":
            raise ValidationError("--search prints JSON only; drop --format csv")
        n_hat = empirical_sample_complexity(
            lambda n: _build_rule(args, p, q),
            p,
            q,
            trials=args.trials,
            seed=args.seed,
            budget=args.budget,
        )
        _emit({"n_hat": n_hat, "budget": args.budget, "trials": args.trials,
               "seed": args.seed}, args)
        return EXIT_OK
    rule = _build_rule(args, p, q)
    ns = [int(x) for x in args.n.split(",")]
    reports = [
        simulate_error(rule, p, q, n, trials=args.trials, seed=args.seed)
        for n in ns
    ]
    if args.format == "csv":
        _emit_csv([r.to_json() for r in reports], args)
    elif len(reports) == 1:
        _emit(reports[0].to_json(), args)
    else:
        _emit({"curve": [r.to_json() for r in reports], "seed": args.seed}, args)
    return EXIT_OK


def cmd_robust_lfd(args) -> int:
    p, q = _dist_arg(args.p), _dist_arg(args.q)
    setup = ContaminationSetup(p, q, args.eps)
    lfd = huber_lfd(setup)
    obj = lfd.to_json()
    obj["epsilon"] = args.eps
    obj["lfd_hellinger_sq"] = hellinger_sq(lfd.p_lfd, lfd.q_lfd)
    _emit(obj, args)
    return EXIT_OK


def cmd_robust_design(args) -> int:
    p, q = _dist_arg(args.p), _dist_arg(args.q)
    setup = ContaminationSetup(p, q, args.eps)
    lfd, design = design_robust_channel(setup, args.d)
    obj = {
        "lfd": lfd.to_json(),
        "design": design.to_json(),
        "epsilon": args.eps,
    }
    obj["design"]["ratio_achieved"] = _finite(design.ratio_achieved)
    obj["design"]["bound"] = _finite(design.bound)
    _emit(obj, args)
    if not design.ratio_achieved <= design.bound:
        return EXIT_GUARANTEE
    return EXIT_OK


def _family_from_args(args) -> HypothesisFamily:
    if args.family is not None:
        return _family_arg(args.family)
    if args.m is None or args.eps is None:
        raise ValidationError("provide --family or both --m and --eps")
    return hadamard_instance(args.m, args.eps)


def cmd_mary_instance(args) -> int:
    fam = hadamard_instance(args.m, args.eps)
    obj = fam.to_json()
    obj["min_pairwise_tv"] = fam.min_pairwise_tv
    obj["min_pairwise_hellinger"] = fam.min_pairwise_hellinger
    _emit(obj, args)
    return EXIT_OK


def cmd_mary_identical(args) -> int:
    fam = _family_from_args(args)
    if args.design == "best":
        channel, score = identical_channel_design(fam, args.d, seed=args.seed)
    elif args.design == "reduction":
        channel = pairwise_indicator_reduction(fam)
        score = min_pairwise_tv_after(channel, fam)
    else:  # sketch
        try:
            channel = jl_sketch_channel(fam, args.d, seed=args.seed)
        except StochasticFailureError as exc:
            _emit({"error": str(exc), "seed": args.seed,
                   "best_score": exc.best_score}, args)
            return EXIT_STOCHASTIC
        score = min_pairwise_tv_after(channel, fam)
    _emit(
        {
            "channel": channel.to_json(),
            "min_pairwise_output_tv": score,
            "design": args.design,
            "seed": args.seed,
        },
        args,
    )
    return EXIT_OK


def cmd_mary_tournament(args) -> int:
    fam = _family_from_args(args)
    if not (0 <= args.truth < fam.m):
        raise ValidationError(f"--truth must be in [0, {fam.m})")
    if args.trials < 1:
        raise ValidationError("--trials must be at least 1")
    run = tournament_adaptive if args.adaptive else tournament_nonadaptive
    wins = 0
    last = None
    for t in range(args.trials):
        sampler = counts_sampler(fam.dists[args.truth])
        last = run(fam, args.d, sampler, seed=args.seed + t)
        wins += last.winner == args.truth
    _emit(
        {
            "trials": args.trials,
            "wins": wins,
            "win_rate": wins / args.trials,
            "truth": args.truth,
            "adaptive": args.adaptive,
            "seed": args.seed,
            "last_transcript": last.to_json(),
        },
        args,
    )
    return EXIT_OK


def cmd_mary_verify(args) -> int:
    fam = _family_from_args(args)
    report = verify_identical_d2_bound(fam, channel_samples=args.samples, seed=args.seed)
    obj = report.to_json()
    obj["seed"] = args.seed
    obj["limit"] = SQUEEZE_CONSTANT_LIMIT
    _emit(obj, args)
    return EXIT_OK if report.constant <= SQUEEZE_CONSTANT_LIMIT else EXIT_GUARANTEE


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, seed=args.seed)
    obj = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
    for check in obj["checks"]:
        check["value"] = _finite(check["value"])
    _emit(obj, args)
    return EXIT_OK if obj["passed"] else EXIT_GUARANTEE


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are invalid input; argparse exits 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_io_args(sub) -> None:
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="commtest",
        description="Hypothesis testing under communication constraints.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("divergence", help="evaluate divergences between p and q")
    sp.add_argument("--p", required=True, help="JSON list / {'probs': ...} / @file")
    sp.add_argument("--q", required=True)
    sp.add_argument("--spec", default="hellinger",
                    help="generator name (hellinger, tv, sym_kl, triangular, sym_chi_<s>)")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_divergence)

    sp = subs.add_parser("quantize", help="design a divergence-preserving channel")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--d", type=int, required=True, help="number of channel outputs")
    sp.add_argument("--spec", default="hellinger")
    sp.add_argument("--oracle", action="store_true",
                    help="exact best threshold channel")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_quantize)

    sp = subs.add_parser("simulate", help="Monte Carlo error of the quantized LRT")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--n", default="100", help="sample size, or comma list for a curve")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--rule", choices=["designed", "scheffe"], default="designed")
    sp.add_argument("--channel", help="explicit channel JSON / @file (overrides --rule)")
    sp.add_argument("--trials", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--search", action="store_true",
                    help="binary-search the sample complexity instead")
    sp.add_argument("--budget", type=float, default=DEFAULT_ERROR_BUDGET,
                    help="total error budget for --search")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("robust-lfd", help="least favorable pair for TV contamination")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--eps", type=float, required=True)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_robust_lfd)

    sp = subs.add_parser("robust-design", help="LFD pair plus a channel designed for it")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--d", type=int, required=True)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_robust_design)

    sp = subs.add_parser("mary", help="M-ary identification tools")
    msubs = sp.add_subparsers(dest="mary_command", required=True)

    mi = msubs.add_parser("instance", help="near-uniform hard family")
    mi.add_argument("--m", type=int, required=True)
    mi.add_argument("--eps", type=float, required=True)
    _add_io_args(mi)
    mi.set_defaults(func=cmd_mary_instance)

    mc = msubs.add_parser("identical", help="design one channel shared by all users")
    mc.add_argument("--family", help="family JSON / @file")
    mc.add_argument("--m", type=int)
    mc.add_argument("--eps", type=float)
    mc.add_argument("--d", type=int, required=True)
    mc.add_argument("--design", choices=["best", "sketch", "reduction"], default="best")
    mc.add_argument("--seed", type=int, default=0)
    _add_io_args(mc)
    mc.set_defaults(func=cmd_mary_identical)

    mt = msubs.add_parser("tournament", help="pairwise tournament identification")
    mt.add_argument("--family", help="family JSON / @file")
    mt.add_argument("--m", type=int)
    mt.add_argument("--eps", type=float)
    mt.add_argument("--d", type=int, default=2)
    mt.add_argument("--truth", type=int, default=0)
    mt.add_argument("--adaptive", action="store_true")
    mt.add_argument("--trials", type=int, default=1)
    mt.add_argument("--seed", type=int, default=0)
    _add_io_args(mt)
    mt.set_defaults(func=cmd_mary_tournament)

    mv = msubs.add_parser("verify", help="binary-channel squeeze bound report")
    mv.add_argument("--family", help="family JSON / @file")
    mv.add_argument("--m", type=int)
    mv.add_argument("--eps", type=float)
    mv.add_argument("--samples", type=int, default=0,
                    help="extra random stochastic channels to sample")
    mv.add_argument("--seed", type=int, default=0)
    _add_io_args(mv)
    mv.set_defaults(func=cmd_mary_verify)

    sp = subs.add_parser("verify", help="run a built-in verification suite")
    sp.add_argument("suite", choices=list(verify.SUITE_NAMES))
    sp.add_argument("--seed", type=int, default=0)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StochasticFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STOCHASTIC
    except (CommtestError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
