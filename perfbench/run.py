"""Run one surrkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 0

Run from the repository root. Each workload runs in this one process. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end metrics of BENCHMARK.json, measured without any wrapper
installed. With ``--trace 1`` the workload runs twice with the same inputs,
first untraced and then traced, and the metrics are the per-layer metrics of
the traced pass plus the tracing overhead. ``--workload all`` runs every
workload, each in a fresh process. Scratch files go to ``.perfbench_out/``
and are removed at exit; a traced run leaves its spans there as JSONL.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("forrester_mf", "serve", "io")
# One closed-loop caller: BLAS gets one thread, which is within nproc, and on
# two cores it trains the serve composite faster than two threads do.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_all(args) -> int:
    """Every workload in a fresh process; the last line sums their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "surrkit" / "__init__.py").is_file():
        print(f"perfbench: no surrkit source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))

    import surrkit

    if Path(surrkit.__file__).resolve().parent != ROOT / "src" / "surrkit":
        print(f"perfbench: imported surrkit from {surrkit.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    if facts["blas_threads"] is not None and facts["blas_threads"] > facts["nproc"]:
        print("perfbench: more BLAS threads than cores; the run would be invalid",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        plain = workloads.run(wl, args.seed, args.seconds, work / "plain")
        outcomes = [plain]
        if args.trace:
            tracer = spans.Tracer()
            replaced = spans.install(tracer)
            try:
                traced = workloads.run(wl, args.seed, args.seconds, work / "traced")
            finally:
                spans.restore(replaced)
            outcomes.append(traced)
            path = OUT / f"trace-{args.workload}-s{args.seed}-{os.getpid()}.jsonl"
            tracer.write_jsonl(path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(wl, args.seed, outcomes)
    attempted = sum(sum(o.tally.attempted.values()) for o in outcomes)
    failed = sum(sum(o.tally.failed.values()) for o in outcomes)
    if args.trace:
        layer = spans.layer_metrics(tracer)
        base, with_trace = plain.metrics[wl.primary], traced.metrics[wl.primary]
        layer["trace.overhead_pct"] = (100.0 * (with_trace - base) / base, "%")
        for key, (value, unit) in layer.items():
            print(f"  {key:40s} {value:14.6g} {unit}")
        estimate = len(tracer.spans) * tracer.span_cost_s()
        print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}; at the "
              f"measured cost per span they add {estimate:.3g} s, "
              f"{100.0 * estimate / plain.seconds:.2f}% of the untraced pass "
              f"({plain.seconds:.1f} s)")
        values = layer
    else:
        values = {k: (v, workloads.UNITS[k]) for k, v in plain.metrics.items()}
    print(json.dumps({
        "correct": not any(o.tally.broken for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def report(wl, seed: int, outcomes) -> None:
    """Human-readable lines: every sample series of the run (the suffix of
    its name is its unit), the metrics, failures by kind."""
    import workloads

    for label, outcome in zip(("untraced", "traced"), outcomes):
        tally = outcome.tally
        print(f"workload {wl.name} seed {seed} ({label}): {outcome.rounds} rounds")
        for key, values in tally.samples.items():
            print(f"  samples {key:22s} {workloads.distribution(values)}")
        for key, value in outcome.metrics.items():
            print(f"  {key:24s} {value:14.6g} {workloads.UNITS[key]}")
        by_kind = ", ".join(f"{k} {tally.failed.get(k, 0)}/{n}"
                            for k, n in tally.attempted.items())
        print(f"  fail_share {tally.fail_share():.6f} ({by_kind})")
        print(f"  largest single-site vs batch relative difference {tally.max_disagreement:.3g}")
    if len(outcomes) == 2:
        plain, traced = (o.metrics for o in outcomes)
        for key in plain:
            delta = traced[key] - plain[key]
            print(f"  tracing overhead {key:24s} {delta:+14.6g} {workloads.UNITS[key]} "
                  f"({100.0 * delta / plain[key]:+.2f}%)")


if __name__ == "__main__":
    sys.exit(main())
