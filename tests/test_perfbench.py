"""The benchmark's traced run wraps package functions by name: each must exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plcalc

SRC = Path(plcalc.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

# the lookup Tracer.install makes for every target
_RESOLVE = """
import json, tracer
targets = tracer.traced_targets()
missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for _, owner, attr in targets
           if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))]
print(json.dumps({"targets": len(targets), "missing": missing}))
"""


@pytest.mark.skipif(not (PERFBENCH / "tracer.py").is_file(), reason="no perfbench/ here")
def test_every_traced_benchmark_target_resolves():
    # a missing name makes every traced benchmark run fail when it installs
    # the tracer; the import runs in its own process, as the benchmark's does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", _RESOLVE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["targets"] > 0 and found["missing"] == []


# one pass of every workload at the default seed, checked as a benchmark run
# checks it: every job's own check, then the digests against reference.json
_REFERENCE_PASS = """
import json, tempfile, worker
from workloads import DEFAULT_SEED, WORKLOADS
problems = {}
with tempfile.TemporaryDirectory() as workdir:
    for name, workload in WORKLOADS.items():
        done = worker.run_pass(workload(), DEFAULT_SEED, 0, workdir)
        problems[name] = done.problems + worker.reference_problems(name, done.digests)
print(json.dumps(problems))
"""


@pytest.mark.skipif(not (PERFBENCH / "worker.py").is_file(), reason="no perfbench/ here")
def test_default_seed_digests_match_the_benchmark_reference(tmp_path):
    # a change that moves a recorded digest would read correct: false in a
    # benchmark run; the pass runs in its own process, as the benchmark's does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", _REFERENCE_PASS], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=600)
    assert done.returncode == 0, done.stderr
    problems = json.loads(done.stdout)
    assert problems and problems == {name: [] for name in problems}
