"""Benchmark of matrixmech's ladder, oracle and verify paths.

Run from the root of a source checkout:

    python3 bench/run.py --workload ladder_tables --seed 1 --seconds 35 --trace 0

Commands run in-process through matrixmech.cli.main with stdout captured;
one operation is one pass over the workload's job list (see workloads.py),
and every output is checked against closed forms (see checks.py).  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import os

# One BLAS thread: otherwise OpenBLAS spreads eigh over every core of a
# shared machine and the oracle's timings follow the neighbours' load.
# Set before NumPy is first imported, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import matrixmech.cli; t2 = time.perf_counter(); "
    "print(t2 - t0, t2 - t1)"
)


def import_program():
    """matrixmech.cli from this checkout's src/; exits with an error without it."""
    if not (SRC / "matrixmech" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'matrixmech'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from matrixmech import cli
    return cli


def setup_sample():
    """(import of NumPy and matrixmech, import of matrixmech alone) in a
    fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return [float(v) for v in proc.stdout.split()]


def interpreter_kernel():
    """Fixed interpreter work: small tuples of floats, the kind of
    allocation-heavy work the ladder's series arithmetic does."""
    acc = []
    for i in range(15000):
        acc.append(tuple(float(i + k) * 1.5 for k in range(3)))
        if len(acc) > 1000:
            acc.clear()


_SYMMETRIC = numpy.random.default_rng(0).standard_normal((256, 256))
_SYMMETRIC += _SYMMETRIC.T


def lapack_kernel():
    """Fixed LAPACK work: the oracle's eigh and basis change at N = 256."""
    _, vectors = numpy.linalg.eigh(_SYMMETRIC)
    vectors.T @ _SYMMETRIC @ vectors


# The speed of a shared machine drifts, by up to 2x over tens of seconds on
# the 2-core machine the benchmark was tuned on.  A reference kernel doing
# the same kind of work as the workload's hot layer is timed before every
# job and after the last; it drifts with the jobs, and an operation's time
# is reported at the speed at which the kernel takes the second entry's
# seconds (its time there when the machine was quiet).
REFERENCE = {
    "ladder_tables": (interpreter_kernel, 0.013),
    "oracle_sweep": (lapack_kernel, 0.009),
    "verify_audit": (interpreter_kernel, 0.013),
}


def run_op(cli, jobs, reference):
    """One pass over the job list.

    Returns [(exit code or error text, stdout)] per job, the seconds spent in
    cli.main, and those seconds at the speed at which the reference kernel
    takes its quiet-machine time.
    """
    kernel, quiet_seconds = reference
    results, busy, kernel_times = [], 0.0, []
    for job in jobs:
        kernel_times.append(timed(kernel))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.main(job.argv)
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                code = f"{type(exc).__name__}: {exc}"
            busy += time.perf_counter() - t0
        results.append((code, out.getvalue()))
    kernel_times.append(timed(kernel))
    return results, busy, busy * quiet_seconds / statistics.fmean(kernel_times)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    setup_sample()  # untimed: the child's files into the page cache
    jobs = workloads.jobs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics, layer_unit
        tracer = Tracer()

    reference = REFERENCE[args.workload]
    op_times, wall_times, layer_samples, setup_samples, stdout_bytes = [], [], [], [], 0
    attempted = failed = 0
    with tracer.install() if tracer else contextlib.nullcontext():
        run_op(cli, jobs, reference)  # warm-up: lazy imports, allocator, caches
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < args.seconds:
            gc.collect()
            mark = tracer.mark() if tracer else None
            results, wall, calibrated = run_op(cli, jobs, reference)
            wall_times.append(wall)
            op_times.append(calibrated)
            if tracer:
                layer_samples.append(layer_metrics(tracer, mark))
            attempted += 1
            errors = checks.check_op(jobs, results)
            if errors:
                failed += 1
                print(f"operation {attempted} failed: " + "; ".join(errors[:3]), file=sys.stderr)
            stdout_bytes = sum(len(out.encode()) for _, out in results)
            # one set-up sample per operation spreads them over the whole run,
            # so one slow phase of the machine does not set the median
            setup_samples.append(setup_sample())

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if tracer:
        metrics = {}
        for name in layer_samples[0]:
            unit = layer_unit(name)
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = metric(median(s[name] for s in layer_samples), unit)
        metrics["cli.import_s"] = metric(statistics.median(t[1] for t in setup_samples), "s")
        metrics["cli.stdout_bytes"] = metric(stdout_bytes, "count")
        metrics["trace.op_p50_s"] = metric(statistics.median(op_times), "s")
        metrics["trace.op_wall_p50_s"] = metric(statistics.median(wall_times), "s")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": tracer.dump()}))
        print(f"spans written to {trace_file}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": metric(statistics.median(t[0] for t in setup_samples), "s"),
            "op_p50_s": metric(statistics.median(op_times), "s"),
            "ops_per_s": metric(len(op_times) / sum(op_times), "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        print(f"uncalibrated op_p50_s {statistics.median(wall_times)!r}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
