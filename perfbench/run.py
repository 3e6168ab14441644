"""The nhsym benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload discover --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Workloads: cli-cold and discover (see
perfbench/README.md).  Each run starts fresh worker
processes with ``src`` on PYTHONPATH and BLAS pinned to one thread, and
drives them as one client in a closed loop.  Every output is checked.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker adds traced passes and the metrics are the per-layer ones.
The line before last is a JSON object with the run's details (versions,
thread settings, the tail percentile and its sample count, failures);
the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli-cold", "discover")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
RUN_TIMEOUT_S = 170.0


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile that leaves at least ``beyond`` samples above
    it: returns (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples; the tail needs more than {beyond}")
    idx = n - beyond - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_worker(args: list, deadline: float):
    """Start a worker; return (seconds until it printed ``ready``, its last
    line as JSON or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                            proc.terminate)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted: let the worker stop its children
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        rc = proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {rc}")
    return ready, json.loads(last) if last else None


def import_seconds(deadline: float) -> float:
    """Wall time of a fresh ``import nhsym.cli``, process start included."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nhsym.cli"], cwd=ROOT,
                   env=child_env(), check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # runs the cleanups
    if not os.path.isfile(os.path.join(SRC, "nhsym", "__init__.py")):
        print("error: src/nhsym not found; run from the root of an nhsym "
              "checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # cli-cold sets up by importing; elsewhere the measuring worker's
        # own set-up is the last sample
        if args.workload == "cli-cold":
            setup = [import_seconds(deadline) for _ in range(SETUP_SAMPLES)]
        else:
            setup = [run_worker(common + ["--setup-only"], deadline)[0]
                     for _ in range(SETUP_SAMPLES - 1)]
        ready, res = run_worker(
            common + ["--seconds", str(args.seconds)]
            + (["--trace"] if args.trace else []), deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "cli-cold":
        setup.append(ready)

    times = res["times"]
    tail_s, percentile, n = tail(times)
    error_rate = res["failed"] / res["attempted"]
    if args.trace:
        metrics = dict(res["layers"])
        metrics["error_rate"] = (error_rate, "ratio")
    else:
        metrics = {
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.tail": (tail_s, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": res["env"], "passes": res["passes"],
        "measured_wall_s": res["wall_s"],
        "op_s.tail": {"percentile": percentile, "samples": n,
                      "beyond": TAIL_BEYOND},
        "setup_samples_s": setup, "error_rate": error_rate,
        "failures": res["failures"],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
