"""Benchmark for the commtest package in this checkout.

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0

Runs one seeded workload (design, simulate, mary or cli; `all` runs each in
turn) against `src/commtest` of the checkout, in a closed loop: a single
caller sends the next request once the previous one has returned. Requests
come in batches, each a fixed list drawn from (seed, batch index); batches
run until --seconds have passed, and at least two run. Every output is
checked against an independent reference after the batch's clock stops.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-module metrics, which come from spans recorded around each
call into a module on every other batch (the batches in between give the
untraced wall time that `trace.overhead_ratio` compares against). Earlier
stdout lines give the same numbers as a table, with sample counts, the
failed ratio and the machine. A full record, and in traced runs the spans,
are written under perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("design", "simulate", "mary", "cli")
SETUP_PROBES = 3  # fresh processes whose set-up time gives setup_s

# The host is shared, and its speed swings by up to 2x within seconds and
# for minutes at a time as neighbours come and go. Between requests, at
# most every CALIBRATION_EVERY_S, the run times a fixed Python + numpy
# kernel that does not touch commtest. Every request and span time is
# scaled by CALIBRATION_S / (median time of the CALIBRATION_NEAREST kernel
# samples taken nearest to it): it reads as at the speed where the kernel
# takes CALIBRATION_S (this 2-core Xeon when quiet). Scaling by nearby
# samples follows swings that last a second or two, which one factor for
# the whole run cannot. Set-up time is not scaled. The raw times and the
# run's median factor are kept in the record.
CALIBRATION_S = 2.0e-3
CALIBRATION_EVERY_S = 0.05
CALIBRATION_NEAREST = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "req_p50_ms": "ms",
             "req_p90_ms": "ms", "peak_rss_mb": "MB"}

# Per-module metrics: (how, span name prefix or counter, unit). Span metrics
# cover the traced batches: "calls" counts spans in the first batch, "busy"
# is the median per-batch time inside them, "p50_*" the median span. "count"
# is a work counter of the first batch and "rate" a counter per busy second,
# median over traced batches. A module idle on a workload reports 0.
LAYER_METRICS = {
    "core.calls": ("calls", "core.", "count"),
    "core.busy_s": ("busy", "core.", "s"),
    "core.f_divergence_p50_us": ("p50_us", "core.f_divergence", "us"),
    "core.apply_channel_p50_us": ("p50_us", "core.apply_channel", "us"),
    "quantizer.oracle_calls": ("calls", "quantizer.oracle", "count"),
    "quantizer.oracle_busy_s": ("busy", "quantizer.oracle", "s"),
    "quantizer.oracle_p50_ms": ("p50_ms", "quantizer.oracle", "ms"),
    "quantizer.oracle_sets": ("count", "quantizer.oracle_sets", "count"),
    "quantizer.design_calls": ("calls", "quantizer.design_", "count"),
    "quantizer.design_busy_s": ("busy", "quantizer.design_", "s"),
    "quantizer.design_p50_ms": ("p50_ms", "quantizer.design_", "ms"),
    "revmarkov.best_busy_s": ("busy", "revmarkov.best", "s"),
    "revmarkov.oracle_busy_s": ("busy", "revmarkov.oracle", "s"),
    "revmarkov.oracle_grids": ("count", "revmarkov.oracle_grids", "count"),
    "robust.lfd_busy_s": ("busy", "robust.lfd", "s"),
    "robust.design_busy_s": ("busy", "robust.design", "s"),
    "robust.decide_calls": ("calls", "robust.decide", "count"),
    "robust.decide_busy_s": ("busy", "robust.decide", "s"),
    "testing.simulate_calls": ("calls", "testing.simulate", "count"),
    "testing.simulate_busy_s": ("busy", "testing.simulate", "s"),
    "testing.simulate_p50_ms": ("p50_ms", "testing.simulate", "ms"),
    "testing.messages_simulated": ("count", "testing.messages_simulated", "count"),
    "testing.messages_per_s": ("rate", ("testing.messages_simulated", "testing.simulate"), "1/s"),
    "testing.referee_calls": ("calls", "testing.referee", "count"),
    "testing.referee_busy_s": ("busy", "testing.referee", "s"),
    "testing.referee_msgs_per_s": ("rate", ("testing.referee_messages", "testing.referee"), "1/s"),
    "testing.search_busy_s": ("busy", "testing.search", "s"),
    "testing.search_probes": ("count", "testing.search_probes", "count"),
    "mary.tournament_calls": ("calls", "mary.tournament", "count"),
    "mary.tournament_busy_s": ("busy", "mary.tournament", "s"),
    "mary.tournament_p50_ms": ("p50_ms", "mary.tournament", "ms"),
    "mary.games": ("count", "mary.games", "count"),
    "mary.game_samples": ("count", "mary.game_samples", "count"),
    "mary.win_ratio": ("win_ratio", None, "ratio"),
    "mary.identical_busy_s": ("busy", "mary.identical", "s"),
    "mary.squeeze_calls": ("calls", "mary.squeeze", "count"),
    "mary.squeeze_busy_s": ("busy", "mary.squeeze", "s"),
    "mary.squeeze_channels": ("count", "mary.squeeze_channels", "count"),
    "verify.suite_calls": ("calls", "verify.suite", "count"),
    "verify.suite_p50_ms": ("p50_ms", "verify.suite", "ms"),
    "cli.calls": ("calls", "cli.call", "count"),
    "cli.call_p50_ms": ("p50_ms", "cli.call", "ms"),
    "cli.import_p50_ms": ("p50_ms", "cli.import", "ms"),
    "cli.interp_p50_ms": ("p50_ms", "cli.interp", "ms"),
    "trace.overhead_ratio": ("overhead", None, "ratio"),
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="commtest benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up the workload, print "ready" and exit (a setup_s sample).
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workload(name: str, seed: int):
    from spans import Tracer
    import workloads

    tracer = Tracer()
    return workloads.WORKLOADS[name](seed, tracer, ROOT), tracer


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its workload being ready
    for the first timed request."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


@dataclass(frozen=True)
class _Item:
    a: float
    b: tuple


def calibration_kernel() -> None:
    """About equal shares of the kinds of work the library's requests do:
    numpy calls on tiny arrays (validation, a matrix-vector product), an
    interpreter-bound float loop, vectorized multinomial draws, and object
    and dict churn."""
    import numpy as np

    rng = np.random.default_rng(12345)
    m = rng.random((4, 16))
    m /= m.sum(axis=0)
    v = rng.random(16)
    v /= v.sum()
    acc = 0.0
    for _ in range(25):
        out = np.clip(m @ v, 0.0, None)
        arr = np.asarray(out / out.sum(), dtype=float)
        if arr.ndim == 1 and np.all(np.isfinite(arr)) and not np.any(arr < 0):
            arr.setflags(write=False)
            acc += float(np.log(arr).sum())
    for i in range(5500):
        acc += math.sqrt(i + 1.0) * 0.5
    acc += float(rng.multinomial(1000, v, size=300).sum())
    items = (_Item(i * 0.5, (i, i + 1)) for i in range(350))
    rows = [{"a": item.a, "b": list(item.b)} for item in items]
    rows.sort(key=lambda r: -r["a"])
    json.dumps(rows[:50])


def calibrate() -> tuple[float, float]:
    """Midpoint and duration of one timing of the calibration kernel."""
    t0 = time.perf_counter()
    calibration_kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2.0, t1 - t0


class Speed:
    """Scale factors from the calibration samples of a run."""

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        samples = sorted(samples)
        self.times = [t for t, _ in samples]
        self.durations = [d for _, d in samples]
        self.median = CALIBRATION_S / statistics.median(self.durations)

    def at(self, t: float) -> float:
        """Factor for a time measured around moment `t`, from the samples
        taken nearest to it."""
        n = CALIBRATION_NEAREST
        lo = max(0, min(bisect.bisect(self.times, t) - n // 2, len(self.times) - n))
        return CALIBRATION_S / statistics.median(self.durations[lo:lo + n])


def unscaled(t: float) -> float:
    return 1.0


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def run_batches(workload, tracer, seconds: float, trace: bool) -> tuple[list[dict], list]:
    """Batches until `seconds` have passed (at least two), plus the
    calibration samples taken between requests."""
    batches, cal = [], [calibrate()]
    last_cal = start = time.perf_counter()
    while len(batches) < 2 or time.perf_counter() - start < seconds:
        b = len(batches)
        batch = workload.batch(b)
        tracer.enabled = trace and b % 2 == 0
        outputs, latencies, mids, cpus = [], [], [], []
        for i, req in enumerate(batch.requests):
            tracer.request = f"{b}.{i}"
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                outputs.append(tracer.call(f"request.{req.kind}", req.fn))
            except Exception as exc:  # a refused or crashed request is a failed one
                outputs.append(exc)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            mids.append((t0 + t1) / 2.0)
            cpus.append(cpu_seconds() - cpu0)
            if t1 - last_cal >= CALIBRATION_EVERY_S:
                cal.append(calibrate())
                last_cal = time.perf_counter()
        traced, tracer.enabled = tracer.enabled, False
        failures = []
        for i, (req, out) in enumerate(zip(batch.requests, outputs)):
            if isinstance(out, Exception):
                why = f"{type(out).__name__}: {out}"
            else:
                try:
                    why = req.check(out)
                except Exception as exc:  # a check that cannot read the output fails it
                    why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                failures.append(f"batch {b} request {i} ({req.kind}): {why}")
        # A batch's wall and CPU time are those of its requests, back to back.
        batches.append({"traced": traced, "wall_s": sum(latencies), "latencies": latencies,
                        "mids": mids, "cpus": cpus, "counts": dict(batch.counts),
                        "failures": failures})
    return batches, cal


def end_to_end(batches: list[dict], setups: list[float], factor) -> dict[str, float]:
    """End-to-end metrics over the untraced batches, each request's time
    scaled by `factor` at the request's midpoint."""
    plain = [b for b in batches if not b["traced"]]
    walls, cpus = [], []
    for b in plain:
        f = [factor(m) for m in b["mids"]]
        walls.append(sum(x * g for x, g in zip(b["latencies"], f)))
        cpus.append(sum(c * g for c, g in zip(b["cpus"], f)))
    lat = [x * factor(m) for b in plain for x, m in zip(b["latencies"], b["mids"])]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        # Set-up runs in other processes, before the batches, and follows
        # the kernel poorly (on a shared 2-core Xeon its log-log slope
        # against kernel time was near 0), so it is reported unscaled.
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "req_p50_ms": statistics.median(lat) * 1e3,
        "req_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(batches: list[dict], spans, workload, speed: Speed) -> dict[str, float]:
    """Per-module metrics from the traced batches, each span's time scaled
    by the factor at its midpoint."""
    traced = [i for i, b in enumerate(batches) if b["traced"]]
    by_batch: dict[int, list] = {i: [] for i in traced}
    for s in spans:
        by_batch[int(s.request.split(".")[0])].append(s)

    def durations(i, prefix):
        return [s.duration * speed.at((s.start + s.end) / 2.0)
                for s in by_batch[i] if s.name.startswith(prefix)]

    out = {}
    for name, (how, key, _unit) in LAYER_METRICS.items():
        if how == "calls":
            value = len(durations(traced[0], key))
        elif how == "busy":
            value = statistics.median(sum(durations(i, key)) for i in traced)
        elif how in ("p50_us", "p50_ms"):
            all_d = [d for i in traced for d in durations(i, key)]
            value = statistics.median(all_d) * (1e6 if how == "p50_us" else 1e3) if all_d else 0
        elif how == "count":
            value = batches[0]["counts"].get(key, 0)
        elif how == "rate":
            counter, prefix = key
            rates = [batches[i]["counts"].get(counter, 0) / sum(durations(i, prefix))
                     for i in traced if durations(i, prefix)]
            value = statistics.median(rates) if rates else 0
        elif how == "win_ratio":
            value = workload.win_ratio() if hasattr(workload, "win_ratio") else 0
        else:  # overhead: traced against untraced batch wall time (unscaled)
            on = statistics.median(batches[i]["wall_s"] for i in traced)
            off = statistics.median(b["wall_s"] for b in batches if not b["traced"])
            value = on / off - 1.0
        out[name] = value
    return out


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, None if it is not OpenBLAS."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def run_one(args) -> int:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload, tracer = make_workload(args.workload, args.seed)
    batches, cal = run_batches(workload, tracer, args.seconds, bool(args.trace))
    speed = Speed(cal)
    extra_failed, extra_reasons = workload.finish()
    failures = [f for b in batches for f in b["failures"]] + extra_reasons
    attempted = sum(len(b["latencies"]) for b in batches)
    failed = min(attempted, sum(len(b["failures"]) for b in batches) + extra_failed)

    e2e = end_to_end(batches, setups, speed.at)
    layers = per_layer(batches, tracer.spans, workload, speed) if args.trace else {}
    from spans import module_times

    info = machine()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": failures[:50],
        "batches": len(batches), "setup_samples_s": setups,
        "end_to_end": e2e, "end_to_end_unscaled": end_to_end(batches, setups, unscaled),
        "speed_median": speed.median, "calibration_samples": len(cal),
        "per_layer": layers,
        "module_times_s": module_times(tracer.spans),
        "batch_wall_s": [b["wall_s"] for b in batches],
        "batch_counts": Counter(),
    }
    for b in batches:
        record["batch_counts"].update(b["counts"])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")

    plain = [b for b in batches if not b["traced"]]
    n_req = sum(len(b["latencies"]) for b in plain)
    print(f"# machine {json.dumps(info)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(batches)} batches, "
          f"{attempted} requests, {failed} failed (failed_ratio {failed / attempted:.4g})")
    for why in failures[:10]:
        print(f"#   FAILED {why}")
    notes = {"setup_s": f"median of {len(setups)} fresh-process set-ups",
             "wall_s": f"median of {len(plain)} untraced batches",
             "cpu_s": f"median of {len(plain)} untraced batches",
             "req_p50_ms": f"{n_req} requests", "req_p90_ms": f"{n_req} requests",
             "peak_rss_mb": "largest process"}
    shown = layers if args.trace else e2e
    units = {k: v[2] for k, v in LAYER_METRICS.items()} if args.trace else E2E_UNITS
    for name, value in shown.items():
        print(f"#   {name:28s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then one line mapping workload to result."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode or (results[name] is None)
    print(json.dumps(results), flush=True)
    return int(code)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "commtest" / "__init__.py").is_file():
        print(f"error: no commtest package under {SRC}; run from a commtest checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        make_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
