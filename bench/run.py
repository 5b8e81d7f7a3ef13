#!/usr/bin/env python3
"""qbench benchmark: one workload, one process, one seed.

    python3 bench/run.py --workload campaign-mixed --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics.  Both print a few ``name = value unit`` lines, a ``machine:`` line
and, last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result (machine facts, every pass, exact outputs) is
written to ``.bench_out/`` at the root of the checkout, next to the spans of
a traced run.  The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the checkout has no ``src/qbench`` to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbench"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("campaign-mixed", "statevector", "report")
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # one set-up probe: set up in --workdir, print the monotonic clock, exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_probe(workdir: Path) -> None:
    """Child side of a set-up sample: import, set up, report the clock."""
    import workloads

    workloads.set_up(workdir)
    print(time.monotonic(), flush=True)


def measure_setup(workdir: Path) -> list[float]:
    """Set-up seconds of fresh processes, from spawn to the end of warm-up.

    CLOCK_MONOTONIC is one clock for every process on Linux, so the child's
    reading and the parent's spawn time compare directly.
    """
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", WORKLOAD_NAMES[0], "--seed", "0", "--seconds", "1",
             "--trace", "0", "--workdir", str(probe_dir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - spawned)
    return samples


def run_passes(workload, seconds: float, trace: bool, tracer):
    """Passes until the next one would end after ``seconds``.

    A traced run alternates plain and traced passes, plain first, and runs
    at least one of each.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracer.installed(len(passes)):
                result = workload.run_pass()
        else:
            result = workload.run_pass()
        passes.append((traced, result))
        longest = max(p.wall_s for _, p in passes)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + longest > seconds:
            return passes


def per_layer(tracer, passes) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and any count that moved."""
    import tracing

    traced = [i for i, (t, _) in enumerate(passes) if t]
    profiles = [tracer.pass_profile(i) for i in traced]
    metrics: dict = {}
    problems: list[str] = []

    def exact(name, values, unit):
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = (values[0], unit)

    for name in tracing.SPAN_NAMES:
        exact(f"{name}.calls", [calls.get(name, 0) for _, calls in profiles], "count")
        metrics[f"{name}.self_s"] = (statistics.median([s.get(name, 0.0) for s, _ in profiles]), "s")
    counters = [tracer.counters[i] for i in traced]
    for name in tracing.COUNTER_NAMES:
        exact(name, [c[name] for c in counters], "B" if "bytes" in name else "count")
    c = counters[0]
    metrics["transpiler.wasted_ratio"] = (
        c["transpiler.lowerings_rejected"] / c["transpiler.lowerings"] if c["transpiler.lowerings"] else 0.0,
        "ratio",
    )
    metrics["providers.useful_ratio"] = (
        c["providers.status.processed"] / c["providers.submits"] if c["providers.submits"] else 0.0,
        "ratio",
    )
    plain_wall = statistics.median([p.wall_s for t, p in passes if not t])
    traced_wall = statistics.median([passes[i][1].wall_s for i in traced])
    metrics["trace_overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.self_coverage"] = (
        statistics.median(
            [
                sum(s.get(name, 0.0) for name in tracing.SPAN_NAMES) / passes[i][1].wall_s
                for i, (s, _) in zip(traced, profiles)
            ]
        ),
        "ratio",
    )
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no qbench sources at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    if args.setup_only:
        setup_probe(Path(args.workdir))
        return 0

    import machine
    import tracing
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workloads.set_up(workdir)
        setup_samples = measure_setup(workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer()
        passes = run_passes(workload, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = [p for _, p in passes]
    problems = [msg for p in results for msg in p.problems]
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    drifted = [p for p in results if p.outputs != results[0].outputs]
    if drifted:
        problems.append(f"outputs of {len(drifted)} passes differ from the first pass")
        failed += sum(p.attempted for p in drifted)

    plain = [p for t, p in passes if not t]
    ops_per_s, named = workload.figures(plain)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "pass_s": (workloads.pass_seconds(plain), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    named["pass_s_raw"] = (workloads.pass_seconds(plain, raw=True), "s")
    reported = metrics
    if args.trace:
        reported, layer_problems = per_layer(tracer, passes)
        problems += layer_problems
        failed += len(layer_problems)
    failed = min(failed, attempted)

    result_path = OUT / f"result-{tag}.json"
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.describe(ROOT, PACKAGE),
        "setup_samples_s": setup_samples,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **named}.items()},
        "per_layer": (
            {k: {"value": v, "unit": u} for k, (v, u) in reported.items()} if args.trace else None
        ),
        "passes": [
            {
                "traced": t,
                "wall_s": p.wall_s,
                "segments": p.segments,
                "raw_segments": p.raw_segments,
                "outputs": p.outputs,
            }
            for t, p in passes
        ],
        "problems": problems,
    }
    result_path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{tag}.jsonl")

    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print("machine: " + json.dumps(full["machine"], sort_keys=True))
    print(f"result: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
