#!/usr/bin/env python3
"""Run one workload of the brandalign benchmark and print its metrics.

    python3 bench/run.py --workload repro-quick --seed 42 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 12

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones from a run with every public
layer function wrapped in a timing span. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``--size tiny`` swaps in a small world; the self-test uses it.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

import os

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# fresh interpreters timed importing the package; setup_s takes their median
IMPORT_REPS = 5
_clock = time.perf_counter


def import_package():
    """Import brandalign from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import brandalign
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import brandalign from {SRC}: {exc}")
    where = Path(brandalign.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SystemExit(f"bench: brandalign imported from {where}, not {SRC}")


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = _clock()
    subprocess.run([sys.executable, "-c", "import brandalign"], env=env,
                   cwd=ROOT, check=True)
    return _clock() - t0


def environment(args, sizes) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inputs": sizes,
    }


def run(args, ctx, workloads, tracing):
    wl = workloads.WORKLOADS[args.workload](ctx)
    tracer = None
    host = None
    if args.trace:
        tracer = tracing.Tracer(source_brand=workloads.world_config(ctx).brands[0])
        tracer.install()
        ctx.tracer = tracer
    else:
        # the untraced run reports its timings at nominal host speed
        host = ctx.host = hostspeed.HostSpeed()
    intervals = {"setup": [], "timed": []}

    def timed_call(kind, fn):
        t0 = _clock()
        result = fn()
        intervals[kind].append((t0, _clock()))
        return result

    try:
        # a fresh interpreter is out of the ticker's reach, and a chunk run
        # beside it slows it: its seconds are raw, taken before the ticker starts
        import_times = [time_import() for _ in range(1 if args.trace else IMPORT_REPS)]
        if host:
            host.start()
        state = None
        for _ in range(1 if args.trace else wl.setup_reps):
            state = None  # drop the previous inputs before building new ones
            state = timed_call("setup", wl.setup)

        if tracer:
            tracer.scope = "timed"
        start = _clock()
        while True:
            gc.collect()  # every repetition starts from the same collector state
            i = len(intervals["timed"])
            if tracer:
                with tracer.span("bench.timed"):
                    out = timed_call("timed", lambda: wl.timed(state, i))
            else:
                out = timed_call("timed", lambda: wl.timed(state, i))
            # start another repetition only if it fits in the run's seconds
            raw = [t1 - t0 for t0, t1 in intervals["timed"]]
            if _clock() - start + statistics.median(raw) > args.seconds:
                break

        seconds = {kind: [host.normalise(t0, t1) if host else t1 - t0
                          for t0, t1 in spans]
                   for kind, spans in intervals.items()}
        walls = seconds["timed"]
        if tracer:
            tracer.scope = "check"
        outcome = wl.check(state, out, walls)
    finally:
        if host:
            host.stop()
        if tracer:
            tracer.uninstall()
        wl.close()

    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(import_times)
                    + statistics.median(seconds["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    metrics.update((name, (value, workloads.UNITS[name]))
                   for name, value in outcome.metrics.items())
    info = {"repetitions": len(walls), "import_s": import_times,
            "at_nominal_speed": seconds,
            "raw_s": {kind: [t1 - t0 for t0, t1 in spans]
                      for kind, spans in intervals.items()}}
    if host:
        info["host_slowness"] = statistics.fmean(
            d for _, d in host.samples) / hostspeed.NOMINAL_CHUNK_S
    absent = {}
    if tracer:
        layer, absent = tracing.layer_metrics(tracer, walls)
        # a quality figure of the regularized model; its spread across seeds
        # is wider than any end-to-end bound, so it is listed per layer
        layer["closeness_da10"] = metrics["closeness_da10"]
        info["end_to_end_under_trace"] = metrics
        metrics = layer
        for label in sorted(tracer.missing | tracer.reshaped):
            print(f"trace: {label} is missing or changed shape; "
                  "its metrics are reported absent")
    return metrics, absent, outcome, info


def run_all(spec, args) -> int:
    """Each workload in turn, each in its own process."""
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--size", args.size])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(spec, args)
    import_package()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        ctx = workloads.Context(args.seed, args.size, workdir, str(work_root))
        metrics, absent, outcome, info = run(args, ctx, workloads, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(args, outcome.sizes), sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True, default=float))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, reason in sorted(absent.items()):
        print(f"  {name:40s} {'absent':>14s} ({reason})")
    checks = outcome.checks
    n_failed = len(checks.failed)
    print(f"failure share {n_failed}/{checks.attempted} = "
          f"{n_failed / checks.attempted:.4f}")
    for label, _ in checks.failed:
        print(f"  failed: {label}")

    result = {}
    for entry in listed:
        name = entry["name"]
        if name in metrics:
            value, unit = metrics[name]
            if unit != entry["unit"]:
                raise SystemExit(f"bench: {name} measured in {unit}, "
                                 f"BENCHMARK.json says {entry['unit']}")
            result[name] = {"value": value, "unit": unit}
        elif not args.trace:
            raise SystemExit(f"bench: end-to-end metric {name} was not measured")
    correct = not any(against for _, against in checks.failed)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": n_failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
