"""Seeded experiment harness: equivalence reports, scans, checks."""

import json

import numpy as np
import pytest

from plcalc.experiments import (
    ExperimentError,
    convergence_check,
    make_mcintosh_symbol,
    mcintosh_check,
    multiplier_bound_check,
    resolvent_scan,
    run_equivalence,
    sample_dyadic_symbol,
    type2_one_sided_check,
)
from plcalc.norms import QuadratureSpec
from plcalc.operators import (
    build_dirichlet_laplacian_1d,
    build_nonnormal_sectorial,
)
from plcalc.partitions import build_homogeneous_dyadic
from plcalc.symbols import make_symbol, window_symbol

SQRT_HALF = 2.0**-0.5


def overlap_config(samples=30, seed=5):
    return {
        "name": "overlap",
        "operator": {"kind": "dirichlet1d", "n": 64, "h": 1.0},
        "norm_a": {"kind": "pl_square", "pnorm": 2},
        "norm_b": {"kind": "ambient", "pnorm": 2},
        "samples": samples,
        "seed": seed,
        "assert_bracket": [SQRT_HALF - 1e-9, 1.0 + 1e-9],
    }


def test_run_equivalence_overlap_bracket():
    report = run_equivalence(overlap_config())
    assert report.passed
    assert report.ratios["min"] >= SQRT_HALF - 1e-9
    assert report.ratios["max"] <= 1.0 + 1e-9
    assert report.ratios["min"] <= report.ratios["median"] <= report.ratios["max"]
    assert len(report.table) == 30
    assert report.provenance["partition"]


def test_run_equivalence_fractional_bracket():
    config = {
        "name": "fractional",
        "operator": {"kind": "hermite", "d": 1, "K": 16,
                     "grid": {"lo": -14, "hi": 14, "n": 700}},
        "norm_a": {"kind": "pl_square", "pnorm": 2, "theta": 1.0},
        "norm_b": {"kind": "fractional_power", "pnorm": 2, "theta": 1.0},
        "samples": 20,
        "seed": 3,
        "assert_bracket": [2.0**-1.5 * (1 - 1e-9), 2.0 * (1 + 1e-9)],
    }
    report = run_equivalence(config)
    assert report.passed


def test_run_equivalence_kernel_split_records_bracket():
    config = {
        "name": "graph-split",
        "operator": {"kind": "graph",
                     "sigma": [[1.0, 1.0], [1.0, 1.0]]},
        "norm_a": {"kind": "kernel_plus_pl", "pnorm": 2},
        "norm_b": {"kind": "ambient", "pnorm": 2},
        "samples": 25,
        "seed": 11,
    }
    report = run_equivalence(config)
    assert np.isfinite(report.ratios["min"]) and report.ratios["min"] > 0
    assert report.ratios["max"] <= np.sqrt(2.0) + 1e-9
    assert report.ratios["min"] >= SQRT_HALF - 1e-9


def test_run_equivalence_deterministic_bytes():
    a = json.dumps(run_equivalence(overlap_config()).to_json(), sort_keys=True)
    b = json.dumps(run_equivalence(overlap_config()).to_json(), sort_keys=True)
    assert a == b


def test_run_equivalence_failing_bracket_reports():
    config = overlap_config()
    config["assert_bracket"] = [2.0, 3.0]
    report = run_equivalence(config)
    assert not report.passed


def test_resolvent_scan_selfadjoint_bound_and_alpha():
    op = build_dirichlet_laplacian_1d(48, 1.0)
    scan = resolvent_scan(op, np.linspace(0.01, 0.5, 8))
    for row in scan["rows"]:
        assert row["sup"] <= 1.0 / np.sin(row["omega"]) + 1e-9
    assert 0.9 <= scan["fitted_alpha"] <= 1.1


def test_resolvent_scan_nonnormal_within_conditioning():
    kappa = 10.0
    op = build_nonnormal_sectorial([0.5, 1.0, 2.0, 4.0], kappa, seed=2)
    scan = resolvent_scan(op, [0.3, 0.6])
    for row in scan["rows"]:
        normal_bound = 1.0 / np.sin(row["omega"])
        assert row["sup"] <= kappa * normal_bound * (1 + 1e-6)
    with pytest.raises(ExperimentError):
        resolvent_scan(build_nonnormal_sectorial([1 + 0.5j, 1 - 0.5j], 1.0, 0), [0.05])


def test_convergence_check_hits_roundoff_once_covered():
    op = build_dirichlet_laplacian_1d(48, 1.0)
    hom = build_homogeneous_dyadic()
    x = op.random_vector(np.random.default_rng(0))
    out = convergence_check(op, hom, x, n_max=12, permute_seed=3)
    assert out["final_defect"] <= 1e-10
    assert out["permuted_defect"] <= 1e-10
    assert abs(out["permuted_defect"] - out["final_defect"]) <= 1e-12
    # N = 0 keeps only the central block
    first = out["curve"][0]["defect"]
    assert first > 0.1


def test_mcintosh_reproduction_and_refinement():
    op = build_dirichlet_laplacian_1d(48, 1.0)
    g = make_mcintosh_symbol(make_symbol("psi_exp", a=1.0, b=1.0))
    assert g.params["c"] == pytest.approx(0.25, rel=1e-10)
    x = op.random_vector(np.random.default_rng(1))
    res = mcintosh_check(op, g, x)
    assert res <= 1e-6
    assert mcintosh_check(op, g, np.zeros(op.n)) == 0.0
    coarse = mcintosh_check(op, g, x, QuadratureSpec.cover(op, margin=2.0**14,
                                                           nodes_per_decade=6))
    assert coarse > res


def test_multiplier_bound_trivial_cases():
    op = build_dirichlet_laplacian_1d(32, 1.0)
    hom = build_homogeneous_dyadic()
    lam = np.real(op.eigenvalues_or_none())
    from plcalc.symbols import mihlin_norm

    window = (np.log(op.lambda_min_positive) - 3, np.log(op.lambda_max) + 3)
    # f = 1: operator norm 1, multiplier norm 1 -> ratio exactly 1
    one = make_symbol("power", theta=0.0)
    assert np.max(np.abs(one(lam))) / mihlin_norm(one, 1.5, window=window).value \
        == pytest.approx(1.0, abs=1e-9)
    # f = central window: sup over spectrum <= multiplier norm
    w0 = window_symbol(hom, 0)
    ratio = np.max(np.abs(np.asarray(w0(lam), dtype=complex))) \
        / mihlin_norm(w0, 1.5, window=window).value
    assert ratio <= 1.0


def test_multiplier_bound_check_stability_small():
    maxima = []
    for n in (32, 64):
        op = build_dirichlet_laplacian_1d(n, 1.0)
        out = multiplier_bound_check(op, alpha=1.5, trials=12, seed=7)
        assert out["max_ratio"] <= 1.0
        maxima.append(out["max_ratio"])
    assert max(maxima) / min(maxima) <= 2.0


@pytest.mark.parametrize("seed, rows", [
    (1, [(0.984589759840991, 90.95677371566902, 0.010824809627909843),
         (0.851449877494776, 90.03497938979379, 0.009456878684989125)]),
    (2, [(0.9393735172054594, 96.32206527987333, 0.00975242292070894),
         (0.9181873176745391, 99.98664451339013, 0.009183099624386097)]),
])
def test_multiplier_bound_check_pinned_rows(seed, rows):
    # exact outputs: reordering the estimator's arithmetic moves them by ~1e-9
    out = multiplier_bound_check(build_dirichlet_laplacian_1d(64, 1.0), 1.5, trials=2, seed=seed)
    got = [(row["opnorm"], row["mihlin"], row["ratio"]) for row in out["rows"]]
    np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0)


def test_type2_one_sided_recorded():
    op = build_dirichlet_laplacian_1d(48, 1.0)
    out = type2_one_sided_check(op, samples=10, seed=3)
    assert np.isfinite(out["empirical_C"]) and out["empirical_C"] > 0


def test_norm_evaluation_failure_carries_sample_index():
    config = {
        "name": "bad",
        "operator": {"kind": "dirichlet1d", "n": 8, "h": 1.0},
        "norm_a": {"kind": "continuous_square", "pnorm": 2, "theta": 0.0,
                   "psi": {"kind": "exp"}},        # no certificate -> error
        "norm_b": {"kind": "ambient", "pnorm": 2},
        "samples": 2,
        "seed": 0,
    }
    with pytest.raises(ExperimentError, match="sample 0"):
        run_equivalence(config)


def test_dyadic_sample_outside_the_blocks():
    # t <= 0 and t = inf lie outside every block (0); NaN stays NaN; the
    # RuntimeWarning filter of the suite turns any cast warning into a failure
    f = sample_dyadic_symbol(build_homogeneous_dyadic(), np.array([0.5, -1.0, 0.25j]), -1)
    t = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -2.0, 1e-310, 0.75, 1.5])
    out = np.asarray(f(t), dtype=complex)
    assert np.isnan(out[0])
    np.testing.assert_array_equal(out[1:7], 0.0)
    np.testing.assert_array_equal(out[7:], f(t[7:]))
    assert np.all(np.abs(out[7:]) <= 1.0) and np.any(out[7:] != 0)


def test_multiplier_bound_check_reports_the_operator_norm_of_a_nonnormal_operator():
    # rebuild the sampled symbols from the same seed and compare each row's
    # opnorm with ||S diag(f(lambda)) S^-1||_2 on the assembled matrix
    op = build_nonnormal_sectorial(np.geomspace(0.5, 40.0, 10), 10.0, seed=3)
    out = multiplier_bound_check(op, 1.5, trials=3, seed=9)
    hom = build_homogeneous_dyadic()
    lam = np.real(op.eigenvalues_or_none())
    n_lo, n_hi = hom.active_range(float(lam.min()), float(lam.max()))
    rng = np.random.default_rng(9)
    s, s_inv = op.form.s, op.form.s_inv
    for row in out["rows"]:
        phases = rng.uniform(0, 2 * np.pi, n_hi - n_lo + 1)
        mags = rng.uniform(0.2, 1.0, n_hi - n_lo + 1)
        vals = sample_dyadic_symbol(hom, mags * np.exp(1j * phases), n_lo)(lam)
        exact = np.linalg.norm((s * vals) @ s_inv, 2)
        assert row["opnorm"] == pytest.approx(exact, rel=1e-12)
        # the spectral sup is only a lower bound here
        assert row["opnorm"] > np.max(np.abs(vals)) * (1 + 1e-3)


def test_resolvent_scan_points_are_exact_operator_norms():
    # each point of the scan is op.multiplier_norm of lambda/(lambda - lambda_k);
    # on a non-normal operator that is ||lambda (lambda - A)^-1||_2 of the
    # assembled matrix
    op = build_nonnormal_sectorial([0.5, 1.0, 2.0, 4.0], 10.0, seed=2)
    lam = op.eigenvalues_or_none()
    z = np.geomspace(0.1, 20.0, 7) * np.exp(0.3j)
    got = op.multiplier_norm(z[:, None] / (z[:, None] - lam[None, :]))
    exact = [abs(w) * np.linalg.norm(np.linalg.inv(w * np.eye(op.n) - op.matrix()), 2)
             for w in z]
    np.testing.assert_allclose(got, exact, rtol=1e-10)
    scan = resolvent_scan(op, [0.3, 0.6])
    assert scan["rows"][0]["sup"] >= max(exact) * (1 - 1e-12)


def test_half_line_experiments_reject_a_negative_spectrum():
    from plcalc.norms import NormsError

    op = build_nonnormal_sectorial([1.0, 2.0, 4.0, -1.0, -2.0, -4.0], 2.0, seed=3)
    with pytest.raises(NormsError):
        multiplier_bound_check(op, 1.5, trials=1, seed=0)
    g = make_mcintosh_symbol(make_symbol("psi_exp", a=1.0, b=1.0))
    with pytest.raises(NormsError):
        mcintosh_check(op, g, op.random_vector(np.random.default_rng(0)))
    config = {**overlap_config(samples=2),
              "operator": {"kind": "nonnormal",
                           "lambdas": [[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]]},
              "norm_a": {"kind": "fractional_power", "theta": 0.5}}
    with pytest.raises(ExperimentError, match="negative eigenvalues"):
        run_equivalence(config)
