"""One workload process: set up, run passes over the job list, check outputs.

Started by ``run.py`` from the root of a plcalc checkout.  It prints
``READY <speed factor>`` once set-up is done (``import plcalc``, pass-0
inputs, one warm-up job of each kind), then, unless ``--setup-only``, runs
passes for ``--seconds`` and prints ``RESULT <json>`` as its last line.

A pass runs every job of the workload's list once, in order, as a closed
loop with one client, and times the calibration loop after every job.
Pass p draws its inputs from ``default_rng([seed, p])``, so passes differ
in their vectors but not in their work.  Checks run after each pass,
outside the timed region.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced passes over the same pass indices; the traced run must
write byte-identical reports.  ``--record-reference`` stores the pass-0
digests of the default seed in ``reference.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_JOBS = 100          # so that at least ten job latencies lie beyond p90
JOB_STRIDE = 1000       # span job id = pass * JOB_STRIDE + job index
CAL_REF_S = 5.0e-4      # seconds one calibration loop takes at the reference speed
_CAL_RNG = np.random.default_rng(0)
_CAL_MAT = _CAL_RNG.standard_normal((256, 256)) + 1j * _CAL_RNG.standard_normal((256, 256))
_CAL_VEC = _CAL_RNG.standard_normal(256) + 0j


def calibration_loop():
    """Fixed work, timed between jobs to follow the machine's speed.

    On a shared host other tenants can slow the CPU by 10-30% for seconds
    to minutes at a time.  The loop mixes interpreted Python and a complex
    mat-vec, the two kinds of work plcalc does, and does not touch plcalc.
    """
    s = 0
    for i in range(3000):
        s += i * i % 7
    v = _CAL_VEC
    for _ in range(4):
        v = _CAL_MAT @ v
        v = v / np.linalg.norm(v)
    return s, v


def speed_factor(samples):
    """Scale from measured seconds to seconds at the reference speed."""
    return CAL_REF_S / statistics.median(samples)


def blas_info():
    """BLAS vendor string and thread count of the library numpy loaded."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = None
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return vendor, threads


def git_sha(root):
    """HEAD of a git checkout, read from .git without running git; None elsewhere."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the package sources, which identifies a commit without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "plcalc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment():
    import scipy
    import sympy

    vendor, threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "sympy": sympy.__version__,
        "blas": vendor, "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PLCALC_THREADS": os.environ.get("PLCALC_THREADS"),
        "git_sha": git_sha(ROOT), "source_digest": source_digest(ROOT),
        "machine": platform.machine(),
    }


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class PassResult:
    index: int
    wall: float                   # seconds in the jobs of the list
    latencies: list               # seconds per job
    factor: float                 # speed factor of the calibration loops run between jobs
    digests: dict                 # label -> floats (checked jobs only)
    outputs: dict                 # path relative to the pass dir -> sha256
    problems: list                # "pass p label: reason" per failed job
    span_range: tuple             # this pass's slice of the tracer's spans


def run_pass(workload, seed, index, workdir, tracer=None):
    passdir = os.path.join(workdir, f"pass{index}")
    os.makedirs(passdir)
    jobs = workload.jobs(np.random.default_rng([seed, index]), passdir)
    results, latencies = [], []
    lo = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    clock = time.perf_counter
    cal = []
    for j, job in enumerate(jobs):
        if tracer:
            tracer.job = index * JOB_STRIDE + j
        t0 = clock()
        try:
            results.append((job.run(), None))
        except Exception as exc:      # a failed job is counted, the run goes on
            results.append((None, f"{type(exc).__name__}: {exc}"))
        t1 = clock()
        calibration_loop()
        cal.append(clock() - t1)
        latencies.append(t1 - t0)
    if tracer:
        tracer.uninstall()
    digests, outputs, problems = {}, {}, []
    for job, (value, err) in zip(jobs, results):
        if err is None:
            try:
                digests[job.label] = job.check(value)
                for path in job.outputs:
                    outputs[os.path.relpath(path, passdir)] = file_digest(path)
            except Exception as exc:  # noqa: BLE001 - any check failure fails the job
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            problems.append(f"pass {index} {job.label}: {err}")
    shutil.rmtree(passdir)
    return PassResult(index, sum(latencies), latencies, speed_factor(cal), digests, outputs,
                      problems, (lo, len(tracer.spans) if tracer else 0))


def run_passes(workload, seed, workdir, seconds, min_jobs=0, tracer=None):
    passes, measured, jobs = [], 0.0, 0
    while not passes or measured < seconds or jobs < min_jobs:
        p = run_pass(workload, seed, len(passes), workdir, tracer)
        passes.append(p)
        measured += p.wall
        jobs += len(p.latencies)
    return passes


def reference_problems(workload_name, digests):
    from workloads import REFERENCE_RTOL

    with open(REFERENCE) as fh:
        recorded = json.load(fh).get(workload_name)
    if recorded is None:
        return [f"no reference values recorded for {workload_name}"]
    problems = []
    for label, want in recorded["digests"].items():
        got = digests.get(label)
        if got is None:
            problems.append(f"reference {label}: no checked value")
            continue
        scale = max(max(abs(w) for w in want), 1e-300)
        if any(abs(g - w) > REFERENCE_RTOL * scale for g, w in zip(got, want)):
            problems.append(f"reference {label}: {got} != recorded {want}")
    return problems


def layer_metrics(tracer, passes):
    from tracer import REPORTED_SPANS, span_totals

    per_pass = [span_totals(tracer.spans, *p.span_range) for p in passes]
    metrics = {}
    for name in REPORTED_SPANS:
        calls = [c[name] for c, _, _ in per_pass]
        metrics[f"{name}.calls"] = (statistics.fmean(calls), "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s[name] * p.factor for (_, s, _), p in zip(per_pass, passes)), "s")
    evals = statistics.fmean(e for _, _, e in per_pass)
    metrics["norms.norm_evals.calls"] = (evals, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    c = lambda name: metrics[f"{name}.calls"][0]
    metrics["operators.coefficients.per_norm_eval"] = (
        ratio(c("operators.coefficients"), evals), "ratio")
    metrics["norms.k_functional.fallback_frac"] = (
        ratio(c("norms.minimize_scalar"), c("norms.k_functional")), "ratio")
    metrics["calculus.apply_contour.resolvents_per_call"] = (
        ratio(c("operators.resolvent_apply"), c("calculus.apply_contour")), "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    # -- set-up (timed from outside, up to READY) --
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import plcalc  # noqa: F401
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.record_reference and args.seed != DEFAULT_SEED:
        ap.error(f"reference values are recorded for the default seed, {DEFAULT_SEED}")

    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        warm = run_pass(_FirstOfEachKey(workload), args.seed, 0, workdir)
        cal = []
        for _ in range(50):
            t0 = time.perf_counter()
            calibration_loop()
            cal.append(time.perf_counter() - t0)
        print(f"READY {speed_factor(cal)!r}", flush=True)
        if args.setup_only:
            return 0 if not warm.problems else 1

        # -- measured passes --
        problems = list(warm.problems)
        tracer = Tracer() if args.trace else None
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = run_passes(workload, args.seed, workdir, seconds,
                           min_jobs=0 if args.trace else MIN_JOBS)
        traced = run_passes(workload, args.seed, workdir, seconds, tracer=tracer) \
            if tracer else []
        measured = plain + traced
        for p in measured:
            problems += p.problems
        for p in traced:
            if p.index < len(plain) and p.outputs != plain[p.index].outputs:
                problems.append(f"pass {p.index}: traced outputs differ from untraced")
        if args.record_reference:
            _record(args.workload, plain[0].digests)
        elif args.seed == DEFAULT_SEED:
            problems += reference_problems(args.workload, plain[0].digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [t * p.factor for p in plain for t in p.latencies]
    run_s = statistics.median(p.wall * p.factor for p in plain)
    if tracer:
        traced_s = statistics.median(p.wall * p.factor for p in traced)
        metrics = layer_metrics(tracer, traced)
        metrics["trace.untraced_run_s"] = (run_s, "s")
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "run_s": (run_s, "s"),
            "job_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
            "job_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": sum(len(p.latencies) for p in measured),
        "failed": sum(len(p.problems) for p in measured),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_walls_s": [p.wall for p in plain],
        "pass_speed_factors": [p.factor for p in plain],
        "passes": len(plain), "traced_passes": len(traced),
        "jobs_per_pass": len(plain[0].latencies),
        "problems": problems[:20],
        "env": environment(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


class _FirstOfEachKey:
    """The warm-up list: the first job of each key of the pass-0 list."""

    def __init__(self, workload):
        self.workload = workload

    def jobs(self, rng, workdir):
        seen, out = set(), []
        for job in self.workload.jobs(rng, workdir):
            if job.key not in seen:
                seen.add(job.key)
                out.append(job)
        return out


def _record(workload_name, digests):
    from workloads import DEFAULT_SEED

    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data[workload_name] = {"seed": DEFAULT_SEED, "pass": 0, "source_digest": source_digest(ROOT),
                           "digests": digests}
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
