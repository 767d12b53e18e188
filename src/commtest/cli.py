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
import os
import sys
from typing import TYPE_CHECKING

from .errors import CommtestError, StochasticFailureError, ValidationError

if TYPE_CHECKING:
    from .core import Distribution
    from .mary import HypothesisFamily
    from .testing import TestRule

# Each handler imports only the modules it runs, so a call loads no more of
# the package than it needs. The parser shows these two constants without
# importing verify or testing; tests pin them to verify.SUITE_NAMES and
# testing.DEFAULT_ERROR_BUDGET.
_SUITE_NAMES = ("facts", "reverse-markov", "quantizer", "robust", "mary", "tightness")
_DEFAULT_ERROR_BUDGET = 0.1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_GUARANTEE = 2
EXIT_STOCHASTIC = 3


def _load_json_arg(text: str):
    """Parse an inline JSON argument, or read it from a file via @path."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except RecursionError as exc:
        raise ValidationError("JSON nested too deeply") from exc


def _value_arg(cls, text: str):
    """A Distribution or Channel given as its JSON object or a bare list."""
    obj = _load_json_arg(text)
    return cls(obj) if isinstance(obj, list) else cls.from_json(obj)


def _pq_args(args) -> tuple[Distribution, Distribution]:
    from .core import Distribution
    return _value_arg(Distribution, args.p), _value_arg(Distribution, args.q)


def _write(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_safe(obj):
    """obj with inf as "inf", -inf as "-inf" and NaN as null, at any depth."""
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _emit(obj: dict, args) -> None:
    _write(json.dumps(_json_safe(obj), sort_keys=True, indent=2, allow_nan=False) + "\n", args)


def _emit_csv(rows: list[dict], args) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args)


# --------------------------------------------------------------------------
# subcommand handlers


def cmd_divergence(args) -> int:
    from .core import builtin_fdiv, f_divergence, hellinger_affinity, hellinger_sq, total_variation
    p, q = _pq_args(args)
    spec = builtin_fdiv(args.spec)
    _emit(
        {
            "spec": spec.name,
            "f_divergence": f_divergence(spec, p, q),
            "hellinger_sq": hellinger_sq(p, q),
            "total_variation": total_variation(p, q),
            "hellinger_affinity": hellinger_affinity(p, q),
        },
        args,
    )
    return EXIT_OK


def cmd_quantize(args) -> int:
    from .core import builtin_fdiv
    from .quantizer import (brute_force_threshold_channel, design_fdiv_channel,
                            design_hellinger_channel)
    p, q = _pq_args(args)
    if args.oracle:
        result = brute_force_threshold_channel(builtin_fdiv(args.spec), p, q, args.d)
    elif args.spec == "hellinger":
        result = design_hellinger_channel(p, q, args.d)
    else:
        result = design_fdiv_channel(builtin_fdiv(args.spec), p, q, args.d)
    obj = result.to_json()
    obj["spec"] = args.spec
    _emit(obj, args)
    if not args.oracle and not result.ratio_achieved <= result.bound:
        return EXIT_GUARANTEE
    return EXIT_OK


def _build_rule(args, p: Distribution, q: Distribution) -> TestRule:
    from .core import Channel
    from .quantizer import design_hellinger_channel
    from .testing import TestRule, scheffe_channel
    if args.channel is not None:
        return TestRule([_value_arg(Channel, args.channel)])
    if args.rule == "scheffe":
        return TestRule([scheffe_channel(p, q)])
    return TestRule([design_hellinger_channel(p, q, 2 if args.d is None else args.d).channel])


def cmd_simulate(args) -> int:
    from .testing import DEFAULT_ERROR_BUDGET, empirical_sample_complexity, simulate_error
    if args.channel is not None and args.rule is not None:
        raise ValidationError("--channel replaces --rule; drop --rule")
    if args.d is not None and (args.channel is not None or args.rule == "scheffe"):
        raise ValidationError("--d sizes the designed channel; drop --d with "
                              "--rule scheffe or --channel")
    p, q = _pq_args(args)
    if args.search:
        if args.n is not None:
            raise ValidationError("--search finds n itself; drop --n")
        if args.format != "json":
            raise ValidationError("--search prints JSON only; drop --format csv")
    elif args.budget is not None:
        raise ValidationError("--budget sets the --search error budget; add --search")
    rule = _build_rule(args, p, q)
    if args.search:
        budget = DEFAULT_ERROR_BUDGET if args.budget is None else args.budget
        n_hat = empirical_sample_complexity(
            lambda n: rule, p, q, trials=args.trials, seed=args.seed, budget=budget
        )
        _emit({"n_hat": n_hat, "budget": budget, "trials": args.trials,
               "seed": args.seed}, args)
        return EXIT_OK
    try:
        ns = [int(x) for x in ("100" if args.n is None else args.n).split(",")]
    except ValueError:
        raise ValidationError(
            f"--n takes a sample size or a comma list of sizes, got {args.n!r}") from None
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
    from .core import hellinger_sq
    from .robust import ContaminationSetup, huber_lfd
    p, q = _pq_args(args)
    setup = ContaminationSetup(p, q, args.eps)
    lfd = huber_lfd(setup)
    obj = lfd.to_json()
    obj["epsilon"] = args.eps
    obj["lfd_hellinger_sq"] = hellinger_sq(lfd.p_lfd, lfd.q_lfd)
    _emit(obj, args)
    return EXIT_OK


def cmd_robust_design(args) -> int:
    from .robust import ContaminationSetup, design_robust_channel
    p, q = _pq_args(args)
    setup = ContaminationSetup(p, q, args.eps)
    lfd, design = design_robust_channel(setup, args.d)
    _emit({"lfd": lfd.to_json(), "design": design.to_json(), "epsilon": args.eps}, args)
    if not design.ratio_achieved <= design.bound:
        return EXIT_GUARANTEE
    return EXIT_OK


def _family_from_args(args) -> HypothesisFamily:
    from .mary import HypothesisFamily, hadamard_instance
    if args.family is not None:
        if args.m is not None or args.eps is not None:
            raise ValidationError("--family replaces --m and --eps; drop them")
        return HypothesisFamily.from_json(_load_json_arg(args.family))
    if args.m is None or args.eps is None:
        raise ValidationError("provide --family or both --m and --eps")
    return hadamard_instance(args.m, args.eps)


def cmd_mary_instance(args) -> int:
    from .mary import hadamard_instance
    fam = hadamard_instance(args.m, args.eps)
    obj = fam.to_json()
    obj["min_pairwise_tv"] = fam.min_pairwise_tv
    obj["min_pairwise_hellinger"] = fam.min_pairwise_hellinger
    _emit(obj, args)
    return EXIT_OK


def cmd_mary_identical(args) -> int:
    from .mary import (identical_channel_design, jl_sketch_channel, min_pairwise_tv_after,
                       pairwise_indicator_reduction)
    if args.design == "reduction":
        for flag in ("d", "seed"):
            if getattr(args, flag) is not None:
                raise ValidationError("the reduction has M(M-1)/2+1 outputs and draws "
                                      f"nothing; drop --{flag}")
    elif args.d is None:
        raise ValidationError(f"--design {args.design} needs --d")
    seed = args.seed or 0
    fam = _family_from_args(args)
    if args.design == "best":
        channel, score = identical_channel_design(fam, args.d, seed=seed)
    else:
        try:
            channel = (pairwise_indicator_reduction(fam) if args.design == "reduction"
                       else jl_sketch_channel(fam, args.d, seed))
        except StochasticFailureError as exc:  # sketch only
            _emit({"error": str(exc), "seed": seed, "best_score": exc.best_score}, args)
            return EXIT_STOCHASTIC
        score = min_pairwise_tv_after(channel, fam)
    _emit(
        {
            "channel": channel.to_json(),
            "min_pairwise_output_tv": score,
            "design": args.design,
            "seed": seed,
        },
        args,
    )
    return EXIT_OK


def cmd_mary_tournament(args) -> int:
    from .core import _count
    from .mary import counts_sampler, tournament_adaptive, tournament_nonadaptive
    fam = _family_from_args(args)
    if not (0 <= args.truth < fam.m):
        raise ValidationError(f"--truth must be in [0, {fam.m})")
    trials = _count("trials", args.trials)
    run = tournament_adaptive if args.adaptive else tournament_nonadaptive
    wins = 0
    last = None
    for t in range(trials):
        sampler = counts_sampler(fam.dists[args.truth])
        last = run(fam, args.d, sampler, seed=args.seed + t)
        wins += last.winner == args.truth
    _emit(
        {
            "trials": trials,
            "wins": wins,
            "win_rate": wins / trials,
            "truth": args.truth,
            "adaptive": args.adaptive,
            "seed": args.seed,
            "last_transcript": last.to_json(),
        },
        args,
    )
    return EXIT_OK


def cmd_mary_verify(args) -> int:
    from .mary import verify_identical_d2_bound
    if args.seed is not None and args.samples == 0:
        raise ValidationError("--seed draws the sampled channels; drop --seed or add --samples")
    seed = args.seed or 0
    fam = _family_from_args(args)
    report = verify_identical_d2_bound(fam, channel_samples=args.samples, seed=seed)
    obj = report.to_json()
    obj["seed"] = seed
    _emit(obj, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify
    results = verify.run_suite(args.suite, seed=args.seed)
    obj = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
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
    pq = argparse.ArgumentParser(add_help=False)  # parent of the (p, q) commands
    pq.add_argument("--p", required=True, help="JSON list / {'probs': ...} / @file")
    pq.add_argument("--q", required=True, help="as --p")
    family = argparse.ArgumentParser(add_help=False)  # parent of the family commands
    family.add_argument("--family", help="family JSON / @file")
    family.add_argument("--m", type=int)
    family.add_argument("--eps", type=float)

    sp = subs.add_parser("divergence", parents=[pq],
                         help="evaluate divergences between p and q")
    sp.add_argument("--spec", default="hellinger",
                    help="generator name (hellinger, tv, sym_kl, triangular, sym_chi_<s>)")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_divergence)

    sp = subs.add_parser("quantize", parents=[pq], help="design a divergence-preserving channel")
    sp.add_argument("--d", type=int, required=True, help="number of channel outputs")
    sp.add_argument("--spec", default="hellinger")
    sp.add_argument("--oracle", action="store_true",
                    help="exact best threshold channel")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_quantize)

    sp = subs.add_parser("simulate", parents=[pq], help="Monte Carlo error of the quantized LRT")
    sp.add_argument("--n", help="sample size, or comma list for a curve (default 100)")
    sp.add_argument("--d", type=int, help="outputs of the designed channel (default 2)")
    sp.add_argument("--rule", choices=["designed", "scheffe"], help="(default designed)")
    sp.add_argument("--channel", help="explicit channel JSON / @file (replaces --rule)")
    sp.add_argument("--trials", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--search", action="store_true",
                    help="binary-search the sample complexity instead")
    sp.add_argument("--budget", type=float,
                    help=f"total error budget for --search (default {_DEFAULT_ERROR_BUDGET})")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("robust-lfd", parents=[pq],
                         help="least favorable pair for TV contamination")
    sp.add_argument("--eps", type=float, required=True)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_robust_lfd)

    sp = subs.add_parser("robust-design", parents=[pq],
                         help="LFD pair plus a channel designed for it")
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

    mc = msubs.add_parser("identical", parents=[family],
                          help="design one channel shared by all users")
    mc.add_argument("--d", type=int, help="number of outputs (best and sketch only)")
    mc.add_argument("--design", choices=["best", "sketch", "reduction"], default="best")
    mc.add_argument("--seed", type=int, help="(best and sketch only; default 0)")
    _add_io_args(mc)
    mc.set_defaults(func=cmd_mary_identical)

    mt = msubs.add_parser("tournament", parents=[family],
                          help="pairwise tournament identification")
    mt.add_argument("--d", type=int, default=2)
    mt.add_argument("--truth", type=int, default=0)
    mt.add_argument("--adaptive", action="store_true")
    mt.add_argument("--trials", type=int, default=1)
    mt.add_argument("--seed", type=int, default=0)
    _add_io_args(mt)
    mt.set_defaults(func=cmd_mary_tournament)

    mv = msubs.add_parser("verify", parents=[family],
                          help="certified binary-channel squeeze bound")
    mv.add_argument("--samples", type=int, default=0,
                    help="random stochastic channels whose best score is the lower bound")
    mv.add_argument("--seed", type=int, help="seed of the --samples draw (default 0)")
    _add_io_args(mv)
    mv.set_defaults(func=cmd_mary_verify)

    sp = subs.add_parser("verify", help="run a built-in verification suite")
    sp.add_argument("suite", choices=list(_SUITE_NAMES))
    sp.add_argument("--seed", type=int, default=0)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:  # else the host process owns numpy's thread pool
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # idle workers spin in a short call
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StochasticFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STOCHASTIC
    except (CommtestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
