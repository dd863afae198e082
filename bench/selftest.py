#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload on a tiny world.

    python3 bench/selftest.py

Runs each workload untraced and traced with ``--size tiny`` and checks that
the result line has exactly its four keys, that every metric named in
BENCHMARK.json is printed and reported with its unit, and that the run was
correct. It then traces a tiny set-up with one wrapped function removed and
one reshaped, and checks that their metrics are reported absent while the
rest are measured, and checks that the record of output digests compares
only runs of the same code. Last it copies BENCHMARK.json and bench/ into an empty
directory and checks that the benchmark fails there without printing a
result. Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 180


def run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def check_run(spec, workload, trace) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct"):
        errors.append(f"{where}: not correct")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        errors.append(f"{where}: failed {result.get('failed')!r}")
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in listed}:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in listed})}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            printed[parts[0]] = parts[2]
    for m in listed:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} reported as {got}")
        if printed.get(m["name"]) != m["unit"]:
            errors.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
    if not any(line.startswith("failure share ") for line in lines):
        errors.append(f"{where}: no failure share printed")
    return errors


def check_refactor_survival() -> list[str]:
    """A missing or reshaped wrapped function leaves its metrics absent."""
    import tracer as tracing
    import workloads
    from brandalign import align, model, pairs

    saved = (align.fit_procrustes, pairs.build_epoch_stream)

    def reshaped_stream(*args, **kwargs):  # no skip_counter the tracer can read
        return saved[1](*args, **kwargs)

    del align.fit_procrustes
    pairs.build_epoch_stream = model.build_epoch_stream = reshaped_stream
    tracer = tracing.Tracer(source_brand="A")
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    try:
        tracer.install()
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            ctx = workloads.Context(3, "tiny", tmp, tmp, tracer)
            workloads.prepare_full_world(ctx, via_files=False)
    finally:
        tracer.uninstall()
        align.fit_procrustes = saved[0]
        pairs.build_epoch_stream = model.build_epoch_stream = saved[1]
    metrics, absent = tracing.layer_metrics(tracer, [1.0])
    errors = [f"refactor: {name} not reported absent"
              for name in ("align.fit_procrustes_ms", "pairs.stream_us_per_pair",
                           "pairs.pairs_skipped")
              if name not in absent]
    errors += [f"refactor: {name} not measured"
               for name in ("model.gradients_us_per_pair", "synth.world_ms")
               if name not in metrics]
    return errors


def check_record() -> list[str]:
    """Output digests are compared only between runs of the same code."""
    import workloads

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    saved = workloads.code_digest
    errors = []
    try:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            ctx = workloads.Context(3, "tiny", tmp, tmp)
            same = lambda digests: workloads.same_as_recorded(ctx, "w", digests)  # noqa: E731
            if not same(["a"]):
                errors.append("record: the first run of a key failed")
            if same(["b"]):
                errors.append("record: a different digest of the same code passed")
            if same(["a", "b"]):
                errors.append("record: repetitions that differ passed")
            workloads.code_digest = lambda: "other code"
            if not same(["b"]):
                errors.append("record: changed code was compared with the old digest")
    finally:
        workloads.code_digest = saved
    return errors


def check_bare() -> list[str]:
    """Without the package's sources the benchmark must fail cleanly."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "repro-quick", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("bare directory: exit 0")
    if '"correct"' in proc.stdout:
        errors.append("bare directory: printed a result")
    return errors


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            t0 = time.perf_counter()
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAIL'} ({time.perf_counter() - t0:.1f} s)")
            errors += found
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    for label, check in (("missing or reshaped function", check_refactor_survival),
                         ("output digest record", check_record),
                         ("bare directory", check_bare)):
        found = check()
        print(f"{label}: {'ok' if not found else 'FAIL'}")
        errors += found
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
