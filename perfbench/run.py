"""plcalc benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plcalc checkout (the package is imported from
``src/``; nothing is installed).  Workloads: equivalence_sweep,
oneshot_eval, interp_kfunc, calculus_symbols (see workloads.py).

``--trace 0`` prints the end-to-end metrics:

  setup_s      interpreter start, ``import plcalc``, input generation and one
               warm-up job of each kind, from starting a worker process to its
               READY line; the median over three set-up-only workers and the
               measured one
  run_s        the median over passes of the time one pass of the job list takes
  job_p50_ms   median job latency (at least 100 jobs per run)
  job_p90_ms   90th percentile of job latency
  peak_rss_mb  ru_maxrss of the workload's process

``--trace 1`` prints the per-layer metrics of a traced run and the tracing
overhead (see tracer.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the environment.  Every result, with its environment, raw pass
times and speed factors, is also written under ``.perfbench_out/``.

Times are reported at a reference machine speed.  A fixed calibration loop
(worker.calibration_loop, which does not touch plcalc) runs after every job
and after set-up; each measured time is multiplied by CAL_REF_S over the
median calibration time of its pass.  On a shared host the raw times drift
by 10-30% from minute to minute; the scaled times do not, and a change to
plcalc moves them as it moves the raw times.

The launcher removes PLCALC_THREADS from the workers' environment and
pins OpenBLAS to one thread.  On a 2-CPU machine two BLAS threads made no
job list faster (the matrices are at most 1024 x 1024) but doubled the CPU
time, and one thread leaves the second CPU to the launcher and the rest of
the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("equivalence_sweep", "oneshot_eval", "interp_kfunc", "calculus_symbols")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170.0


def worker_env():
    env = dict(os.environ)
    env.pop("PLCALC_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def start_worker(args, extra):
    """Run a worker to its end; return (set-up seconds at the reference speed,
    its stdout lines)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = (time.perf_counter() - t0) * float(line.split()[1])
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {code}: {' | '.join(lines[-3:])}")
    return ready, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "plcalc", "__init__.py")):
        print("perfbench: run from the root of a plcalc checkout (no src/plcalc here)",
              file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [start_worker(args, ["--setup-only"])[0]
                                        for _ in range(SETUP_PROBES)]
        ready, lines = start_worker(args, [])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1][len("RESULT "):])
    setups.append(ready)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["env"]["PLCALC_THREADS_in_caller"] = os.environ.get("PLCALC_THREADS")
    result["setup_samples_s"] = setups

    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": result["env"], "passes": result["passes"],
                      "traced_passes": result["traced_passes"],
                      "jobs_per_pass": result["jobs_per_pass"]}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
