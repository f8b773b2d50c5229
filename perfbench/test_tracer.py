"""Exact call counts of the traced run on small known jobs, trace-invariant
reports, and output checks that reject wrong outputs.

    python3 -m pytest -q perfbench/test_tracer.py     (from the repository root)
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import scipy.optimize  # noqa: E402

from plcalc import calculus, cli, experiments, norms, operators, partitions, symbols  # noqa: E402
from plcalc.measure import lp_norm  # noqa: E402
from tracer import Tracer, span_totals  # noqa: E402
import workloads  # noqa: E402


def unit_vector(op, seed=0):
    x = op.random_vector(np.random.default_rng(seed))
    return x / lp_norm(x, 2, op.measure)


def traced(fn):
    with Tracer() as tracer:
        fn()
    calls, _, norm_evals = span_totals(tracer.spans)
    return calls, norm_evals


def test_pl_square_makes_one_multiplier_per_active_block():
    op = operators.build_dirichlet_laplacian_1d(256, 1.0)
    hom = partitions.build_homogeneous_dyadic()
    x = unit_vector(op)
    blocks = len(norms.block_indices(op, hom))
    calls, norm_evals = traced(lambda: norms.pl_square_norm(op, hom, x, 2))
    # spectral_multiplier is reached through the name norms imported
    assert calls["calculus.spectral_multiplier"] == blocks
    assert calls["operators.coefficients"] == blocks
    assert calls["operators.synthesize"] == blocks
    assert calls["partitions.window"] == blocks
    assert calls["partitions.bump"] == 2 * blocks
    assert calls["norms.spectral_blocks"] == 1
    assert calls["measure.lp_norm"] == 1
    assert norm_evals == 1


def test_experiment_run_counts_through_the_cli(tmp_path):
    op = operators.build_dirichlet_laplacian_1d(256, 1.0)
    blocks = len(norms.block_indices(op, partitions.build_homogeneous_dyadic()))
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "operator": {"kind": "dirichlet1d", "n": 256, "h": 1.0},
        "norm_a": {"kind": "pl_square", "pnorm": 2},
        "norm_b": {"kind": "ambient", "pnorm": 2}, "samples": 2}))
    argv = ["experiment", "run", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
            "--seed", "3", "--quiet"]
    calls, norm_evals = traced(lambda: cli.main(argv))
    assert calls["cli.main"] == 1
    assert calls["experiments.run_equivalence"] == 1
    # operator_from_spec -> build_dirichlet_laplacian_1d is one build
    assert calls["operators.build"] == 1
    assert calls["calculus.spectral_multiplier"] == 2 * blocks
    # per sample: normalisation, the square function, the ambient norm
    assert calls["measure.lp_norm"] == 2 * 3
    assert norm_evals == 2


def test_real_interpolation_makes_one_k_functional_per_node():
    op = operators.build_dirichlet_laplacian_1d(64, 1.0)
    x = unit_vector(op)
    quad = norms.QuadratureSpec(1e-12, 1e12, 16)
    nodes = quad.nodes()[0].size
    calls, norm_evals = traced(lambda: norms.real_interpolation_norm(op, x, 0.5, 2, quad=quad))
    assert calls["norms.real_interpolation_norm"] == 1
    assert calls["norms.k_functional"] == nodes
    assert calls["operators.coefficients"] == nodes + 1
    assert norm_evals == 1


def test_minimize_scalar_is_counted_through_scipy_optimize():
    # one eigenvalue: the stationarity residual never changes sign, so the
    # golden-section fallback runs exactly once
    op = operators.build_nonnormal_sectorial([2.0 + 0j], 1.0, 0)
    x = np.array([1.0 + 0j])
    value = []
    calls, _ = traced(lambda: value.append(norms.k_functional(op, x, 0.1, 0.0, 1.0)))
    assert value[0] == pytest.approx(0.2, rel=1e-9)
    assert calls["norms.k_functional"] == 1
    assert calls["norms.minimize_scalar"] == 1


def test_apply_contour_makes_one_resolvent_per_node():
    op = operators.build_dirichlet_laplacian_1d(32, 1.0)
    rho = symbols.make_symbol("rho")
    spec = calculus.default_contour_spec(op, rho)
    nodes = spec.nodes()[0].size
    x = unit_vector(op)
    calls, _ = traced(lambda: calculus.apply_contour(op, rho, x, spec))
    assert calls["calculus.apply_contour"] == 1
    # both rays; resolvent_apply is reached through the name calculus imported
    assert calls["operators.resolvent_apply"] == 2 * nodes
    assert calls["operators.coefficients"] == 2 * nodes


def test_multiplier_bound_check_counts_estimator_calls():
    op = operators.build_dirichlet_laplacian_1d(64, 1.0)
    trials = 2
    calls, _ = traced(lambda: experiments.multiplier_bound_check(op, 1.5, trials, 5))
    assert calls["experiments.multiplier_bound_check"] == 1
    assert calls["symbols.besov_norm_inf_1"] == trials
    # coarse and refined grids, two signs of h each
    assert calls["symbols.iterated_difference"] == 4 * trials
    # per grid: one sup evaluation plus M + 1 = 3 shifts per sign; plus f on the spectrum
    assert calls["partitions.bump"] == trials * (2 * (1 + 2 * 3) + 1)


def test_uninstall_restores_every_binding():
    originals = (calculus.spectral_multiplier, norms.spectral_multiplier,
                 experiments.spectral_multiplier, calculus.resolvent_apply,
                 operators.ModelOperator.__dict__["coefficients"],
                 partitions.SmoothBump.__dict__["__call__"], scipy.optimize.minimize_scalar,
                 cli.main, experiments.operator_from_spec)
    with Tracer():
        assert norms.spectral_multiplier is not originals[1]
        assert norms.spectral_multiplier is calculus.spectral_multiplier
    after = (calculus.spectral_multiplier, norms.spectral_multiplier,
             experiments.spectral_multiplier, calculus.resolvent_apply,
             operators.ModelOperator.__dict__["coefficients"],
             partitions.SmoothBump.__dict__["__call__"], scipy.optimize.minimize_scalar,
             cli.main, experiments.operator_from_spec)
    assert all(a is b for a, b in zip(originals, after))


def test_traced_experiment_report_is_byte_identical(tmp_path):
    job_dirs = []
    for name in ("plain", "traced"):
        d = tmp_path / name
        d.mkdir()
        jobs = workloads.EquivalenceSweep().jobs(np.random.default_rng([5, 0]), str(d))
        job = next(j for j in jobs if j.label == "d256-pl_random-0")
        if name == "traced":
            with Tracer() as tracer:
                assert job.run() == 0
            assert tracer.spans
        else:
            assert job.run() == 0
        job_dirs.append([open(p, "rb").read() for p in job.outputs])
    assert job_dirs[0] == job_dirs[1]


def _first(workload, key):
    jobs = workload.jobs(np.random.default_rng([9, 0]), None)
    return next(j for j in jobs if j.key == key)


def test_checks_reject_wrong_outputs():
    kcurve = _first(workloads.InterpKfunc(), "kcurve")
    ks = kcurve.run()
    kcurve.check(ks)
    with pytest.raises(workloads.CheckError):
        kcurve.check(ks * 1.01)          # above ||x||_0 at large t

    contour = _first(workloads.CalculusSymbols(), "contour:rho")
    y, tail = contour.run()
    contour.check((y, tail))
    with pytest.raises(workloads.CheckError):
        contour.check((y * (1 + 1e-6), tail))
