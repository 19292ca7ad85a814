"""Benchmark of the contcount package: one workload per run, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload counter-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json for
``--seconds`` seconds with no instrumentation. ``--trace 1`` runs the
workload's fixed unit of work three times, untraced, under the timing shims
of ``tracing.py``, and untraced again, and reports the per-layer metrics.
Human-readable lines start with ``#``; the last line of standard output is
the JSON result. Spans and a record of the run go to ``.perfbench_out/`` in
the checkout. See README.md in this directory.
"""

import os

# Pin every BLAS / OpenMP pool to one thread before numpy is imported, so that
# each workload runs on a single thread.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("counter-stream", "resource-trials", "reproduce-suite")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path; stop if it has no package."""
    src = ROOT / "src"
    if not (src / "contcount" / "__init__.py").is_file():
        sys.exit(f"perfbench: no contcount package under {src}; nothing to benchmark")
    sys.path.insert(0, str(src))
    import contcount
    if Path(contcount.__file__).resolve().parent != (src / "contcount").resolve():
        sys.exit(f"perfbench: imported contcount from {contcount.__file__}, not from {src}")


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _thread_count():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def machine() -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "threads": _thread_count(),
        "pinned": {var: os.environ[var] for var in PINNED},
        "note": (f"measured on a shared {nproc}-core machine whose other tenants add "
                 "noise; compare medians of repeated runs, never single runs"),
    }


def _setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to the end of the workload's set-up.

    Set-up is mostly file reads and imports, which the reference kernel of
    ``speed.py`` does not track, so these seconds are not scaled.
    """
    t0 = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return (int(done.stdout.split()[-1]) - t0) / 1e9


def run_timed(args, workload):
    import workloads
    setup = [_setup_probe(args) for _ in range(SETUP_PROBES)]
    workload.warm_up()
    outcome = workload.timed(workloads.clock() + int(args.seconds * 1e9))
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": outcome.ops_per_s,
        "op_p50_ms": workloads.percentile_ms(outcome.op_ns, 50),
        "op_p90_ms": workloads.percentile_ms(outcome.op_ns, 90),
    }
    notes = {
        "op_samples": len(outcome.op_ns),
        "setup_samples_s": setup,
        "raw_ops_per_s": outcome.raw_ops_per_s,
        "raw_op_p50_ms": workloads.percentile_ms(outcome.raw_op_ns, 50),
        "raw_op_p90_ms": workloads.percentile_ms(outcome.raw_op_ns, 90),
        "raw_op_p99_ms": workloads.percentile_ms(outcome.raw_op_ns, 99),
    }
    return values, outcome.attempted, outcome.failed, {**notes, **outcome.properties}


def run_traced(args, workload):
    import tracing
    import workloads
    workload.warm_up()

    def timed_unit():
        t0 = workloads.clock()
        outcome = workload.unit()
        return outcome, workloads.clock() - t0

    # untraced units before and after the traced one, so that drift in the
    # machine's speed cancels out of the overhead estimate
    plain, plain_ns = timed_unit()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, traced_ns = timed_unit()
    after, after_ns = timed_unit()
    values = tracing.layer_metrics(tracer, traced_ns)
    values.update(plain.layer)
    values["trace.overhead_frac"] = 2.0 * traced_ns / (plain_ns + after_ns) - 1.0
    attempted = plain.attempted + traced.attempted + after.attempted + 1
    failed = plain.failed + traced.failed + after.failed
    if not plain.digest == traced.digest == after.digest:
        failed += 1
        print("perfbench: outputs under tracing differ from the untraced outputs",
              file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
    notes = {"spans": len(tracer.start), "untraced_s": [plain_ns / 1e9, after_ns / 1e9],
             "traced_s": traced_ns / 1e9, **plain.properties}
    return values, attempted, failed, notes


def _metrics(declared: list, values: dict) -> dict:
    """Every declared metric with its unit. Scenario and step metrics that a
    workload does not exercise read 0."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and not name.startswith(("harness.scenario.", "counters.step.")):
            sys.exit(f"perfbench: no value for declared metric {name}")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = _spec()
    _load_program()
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    if args.setup_probe:
        print(time.monotonic_ns())
        return 0

    if args.trace:
        values, attempted, failed, notes = run_traced(args, workload)
        metrics = _metrics(spec["per_layer"], values)
    else:
        values, attempted, failed, notes = run_timed(args, workload)
        metrics = _metrics(spec["end_to_end"], values)
    host = machine()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host, "notes": notes, "metrics": metrics,
              "attempted": attempted, "failed": failed}
    (OUT_DIR / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in host.items() if k != "note"))
    print(f"# note: {host['note']}")
    for name, value in sorted(notes.items()):
        print(f"# {name} = {value}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# error_rate = {failed}/{attempted} = {failed / attempted:g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
