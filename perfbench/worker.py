"""One measured run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only]

Started by ``run.py``, which puts ``src`` on PYTHONPATH and pins the BLAS
thread variables to 1.  The worker builds the workload's inputs, runs one
warm-up pass and prints ``ready``.  It then runs whole passes, one
operation at a time, until ``--seconds`` have passed and at least the
workload's minimum number of passes is done.  Every output goes through
its oracle outside the timed region.  With ``--trace`` it finishes with
traced passes for the per-layer metrics.  The last line it prints is one
JSON object with the raw measurements.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import tracing
import workloads

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_SAMPLES = 3


def run_pass(w, ops, times, failures, tracer=None) -> None:
    """Run operations one after another; time each, then check its output."""
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        problem = None
        t0 = time.perf_counter()
        try:
            out = w.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if problem is None:
            if tracer is not None:
                tracer.active = False
            try:
                problem = w.check(op, out)
            finally:
                if tracer is not None:
                    tracer.active = True
        if problem is not None:
            failures.append(f"{w.label(op)}: {problem}")


def _blas_version(config: dict):
    return config["Build Dependencies"]["blas"].get("version")


def environment() -> dict:
    return {
        **{v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_openblas": _blas_version(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_openblas": _blas_version(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "nhsym_console_script": shutil.which("nhsym"),
        "invocation": "python -m nhsym.cli with src on PYTHONPATH",
    }


def import_times() -> dict:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nhsym.cli"],
            capture_output=True, text=True, check=True, timeout=60)
        samples.append(tracing.parse_importtime(proc.stderr))
    return tracing.median_imports(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run kills the running command, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    workdir = tempfile.mkdtemp(prefix="_work-", dir=workloads.HERE)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm, failures = [], []
        run_pass(w, w.warmup_ops(), warm, failures)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        times: list = []
        start = time.perf_counter()
        passes = 0
        while passes < w.min_passes or time.perf_counter() - start < args.seconds:
            run_pass(w, w.pass_ops(passes), times, failures)
            passes += 1
        wall = time.perf_counter() - start
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" \
            else resource.RUSAGE_SELF
        result = {"times": times, "passes": passes, "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                  "env": environment()}

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            w.tracer = tracer
            traced: list = []
            try:
                for k in range(w.trace_passes):
                    run_pass(w, w.pass_ops(k), traced, failures, tracer)
            finally:
                tracer.uninstall()
                w.tracer = None
            layers = tracing.layer_metrics(tracer.spans)
            samples = getattr(w, "import_samples", None)
            layers.update(tracing.median_imports(samples) if samples
                          else import_times())
            layers["trace.overhead"] = (
                statistics.median(traced) / statistics.median(times), "ratio")
            result["layers"] = layers
            result["traced_ops"] = len(traced)

        result["attempted"] = len(warm) + len(times) + result.get("traced_ops", 0)
        result["failed"] = len(failures)
        result["failures"] = failures[:20]
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
