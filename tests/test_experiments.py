"""Seeded experiment harness: equivalence reports, scans, checks."""

import hashlib
import json

import numpy as np
import pytest

from plcalc import experiments
from plcalc.experiments import (
    DyadicSampleFamily,
    ExperimentError,
    convergence_check,
    make_mcintosh_symbol,
    mcintosh_check,
    multiplier_bound_check,
    resolvent_scan,
    run_equivalence,
    sample_dyadic_symbol,
)
from plcalc.norms import QuadratureSpec
from plcalc.operators import (
    build_dirichlet_laplacian_1d,
    build_nonnormal_sectorial,
)
from plcalc.partitions import _chi_values, build_homogeneous_dyadic, to_inhomogeneous
from plcalc.symbols import NormStabilityError, make_symbol, mihlin_norm, window_symbol

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
    with pytest.raises(ExperimentError, match="intersects the spectral sector"):
        resolvent_scan(build_nonnormal_sectorial([1 + 0.5j, 1 - 0.5j], 1.0, 0), [0.05, 0.6])


@pytest.mark.parametrize("omegas", [[0.5], [0.5, 0.5]])
def test_resolvent_scan_refuses_a_fit_through_one_angle(monkeypatch, omegas):
    op = build_dirichlet_laplacian_1d(64, 1.0)
    monkeypatch.setattr(op, "multiplier_norm", None)    # no scan may run
    with pytest.raises(ExperimentError, match="at least two distinct ray angles"):
        resolvent_scan(op, omegas)


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


def test_convergence_check_takes_even_windows_on_a_double_sector_operator():
    # the even windows are evaluated at |lambda|, as in every block norm,
    # so a spectrum with negative eigenvalues is admitted
    from plcalc.partitions import even_extension

    op = build_nonnormal_sectorial([1.0, 2.0, -1.5, -3.0], 2.0, 0)
    x = op.random_vector(np.random.default_rng(4))
    out = convergence_check(op, even_extension(build_homogeneous_dyadic()), x, 6,
                            permute_seed=1)
    assert out["final_defect"] <= 1e-12
    assert out["permuted_defect"] <= 1e-12


@pytest.mark.parametrize("even", [False, True])
def test_convergence_check_sums_the_inhomogeneous_windows_from_0(even):
    # the inhomogeneous windows have indices n >= 0 only: phi_0 covers
    # (0, 2], so n_max = 4 reaches lambda_max < 4 of dirichlet n = 16
    from plcalc.partitions import even_extension

    inh = to_inhomogeneous(build_homogeneous_dyadic())
    op = build_dirichlet_laplacian_1d(16, 1.0)
    x = op.random_vector(np.random.default_rng(2))
    out = convergence_check(op, even_extension(inh) if even else inh, x, n_max=4,
                            permute_seed=5)
    assert [row["N"] for row in out["curve"]] == [0, 1, 2, 3, 4]
    assert out["curve"][0]["defect"] > 0.1
    assert out["final_defect"] <= 1e-14
    assert out["permuted_defect"] <= 1e-14


def test_mcintosh_reproduction_and_refinement():
    op = build_dirichlet_laplacian_1d(48, 1.0)
    g = make_mcintosh_symbol(make_symbol("psi_exp", a=1.0, b=1.0))
    assert g.params["c"] == pytest.approx(0.25, rel=1e-10)
    x = op.random_vector(np.random.default_rng(1))
    res = mcintosh_check(op, g, x)
    assert res <= 1e-6
    assert mcintosh_check(op, g, np.zeros(op.n)) == 0.0
    wide = QuadratureSpec.cover(op, margin=2.0**14)
    coarse = mcintosh_check(op, g, x, QuadratureSpec(wide.t_lo, wide.t_hi, nodes_per_decade=6))
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


@pytest.mark.parametrize("n, seed, rows", [
    (64, 1, [("0x1.f81c2624fcb2ap-1", "0x1.6bd3bc7d29e22p+6", "0x1.62b515ab2c9aap-7"),
             ("0x1.b3f13d040be9fp-1", "0x1.6823d1a31ccb2p+6", "0x1.35e20c564e681p-7")]),
    (64, 2, [("0x1.e0f590ce407b6p-1", "0x1.8149cb7b10eeap+6", "0x1.3f9140c027822p-7"),
             ("0x1.d61ca5ea07393p-1", "0x1.8ff252f077276p+6", "0x1.2ce96c4804dafp-7")]),
    (128, 1, [("0x1.f5ac518436ec3p-1", "0x1.8d9fd91785af1p+6", "0x1.42fd3098a7fb4p-7"),
              ("0x1.cd6df9eaf1ab4p-1", "0x1.2dc14310ec89ep+6", "0x1.877699e5a292fp-7")]),
    (128, 2, [("0x1.e0f59014d9388p-1", "0x1.5415e3e6f8b2fp+6", "0x1.6a0aff26caafdp-7"),
              ("0x1.f2e42db7827ebp-1", "0x1.7b204f1a183f4p+6", "0x1.50deacc72a642p-7")]),
])
def test_multiplier_bound_check_rows_are_bit_exact(n, seed, rows):
    # (opnorm, mihlin, ratio) to the last bit: skipping grid work that reads
    # only exact zeros, or regrouping the sweep, must not move a row
    out = multiplier_bound_check(build_dirichlet_laplacian_1d(n, 1.0), 1.5, trials=2, seed=seed)
    got = [tuple(float(row[key]).hex() for key in ("opnorm", "mihlin", "ratio"))
           for row in out["rows"]]
    assert got == rows


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("trials", [1, 3])
def test_multiplier_bound_check_rows_match_mihlin_norm_of_each_sample(n, trials):
    # one estimator sweep per grid for all trials gives each trial the bits
    # of mihlin_norm on that trial's sample alone, refinement change included
    op = build_dirichlet_laplacian_1d(n, 1.0)
    out = multiplier_bound_check(op, 1.5, trials=trials, seed=11)
    hom = build_homogeneous_dyadic()
    n_lo, n_hi = hom.active_range(op.lambda_min_positive, op.lambda_max)
    window = (np.log(op.lambda_min_positive) - 3.0, np.log(op.lambda_max) + 3.0)
    rng = np.random.default_rng(11)
    assert len(out["rows"]) == trials
    for row in out["rows"]:
        phases = rng.uniform(0, 2 * np.pi, n_hi - n_lo + 1)
        mags = rng.uniform(0.2, 1.0, n_hi - n_lo + 1)
        f = sample_dyadic_symbol(hom, mags * np.exp(1j * phases), n_lo)
        est = mihlin_norm(f, 1.5, window=window, n_x=384, n_h=73, check_window_growth=False)
        assert row["mihlin"] == est.value
        assert row["refine_rel"] == est.method["refine_rel"]
        assert row["opnorm"] == np.max(np.abs(f(op.eigenvalues_or_none().real)))
    assert out["max_refine_rel"] == max(row["refine_rel"] for row in out["rows"])
    assert out["max_refine_rel"] <= 0.05


def test_multiplier_bound_check_gates_each_trial():
    # on this coarse grid trial 0 of seed 2 changes by ~2% under refinement
    # and trial 1 by ~10%: the family sweep still refuses the set
    op = build_dirichlet_laplacian_1d(64, 1.0)
    with pytest.raises(NormStabilityError, match="member 1 unstable"):
        multiplier_bound_check(op, 1.5, trials=3, seed=2, n_x=96, n_h=25)
    alone = multiplier_bound_check(op, 1.5, trials=1, seed=2, n_x=96, n_h=25)
    assert 0 < alone["max_refine_rel"] <= 0.05


def _log2_dyadic_sample(c_pad, n_lo, t):
    # the sample's evaluate before the frexp table: m = floor(log2 t)
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < np.inf)
    if not inside.all():
        return np.where(inside, _log2_dyadic_sample(c_pad, n_lo, np.where(inside, t, 1.0)),
                        np.where(np.isnan(t), np.nan, 0.0))
    m = np.floor(np.log2(np.maximum(t, 1e-300)))
    chi = _chi_values(t * np.exp2(-m))
    i0 = (m - n_lo + 1).astype(int)
    return c_pad.take(i0, mode="clip") * chi + c_pad.take(i0 + 1, mode="clip") * (1.0 - chi)


@pytest.mark.parametrize("n_lo", [-3, 900])
def test_dyadic_sample_frexp_index_is_bitwise_the_log2_index(n_lo):
    # every power of two, both its neighbours, the special values and 10^6
    # random points, half over all doubles and half over the blocks
    rng = np.random.default_rng(n_lo + 5)
    coeffs = rng.uniform(0.2, 1.0, 14) * np.exp(1j * rng.uniform(0, 2 * np.pi, 14))
    c_pad = np.concatenate([[0.0], coeffs, [0.0]])
    f = sample_dyadic_symbol(build_homogeneous_dyadic(), coeffs, n_lo)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, 5e-324]
    points = [np.concatenate([powers, np.nextafter(powers, 0.0),
                              np.nextafter(powers, np.inf), special])]
    points += [2.0 ** rng.uniform(-1074, 1024, 100_000) for _ in range(5)]
    points += [2.0 ** rng.uniform(n_lo - 2, n_lo + 16, 100_000) for _ in range(5)]
    assert sum(t.size for t in points) == 1_006_301
    for t in points:
        new, old = f(t), _log2_dyadic_sample(c_pad, n_lo, t)
        np.testing.assert_array_equal(new.view(np.int64), old.view(np.int64))


def test_dyadic_sample_below_the_log2_clamp_is_the_window_sum():
    # blocks below 2^-997, where the log2 index was clamped at 1e-300: the
    # frexp index reads the right pair of windows there
    hom = build_homogeneous_dyadic()
    rng = np.random.default_rng(4)
    coeffs = rng.uniform(0.2, 1.0, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    t = 2.0 ** rng.uniform(-1003, -993, 2000)
    exact = sum(c * hom.window(-1001 + k, t) for k, c in enumerate(coeffs))
    np.testing.assert_allclose(sample_dyadic_symbol(hom, coeffs, -1001)(t), exact,
                               rtol=0, atol=1e-15)


def _hex_parts(values):
    return [(z.real.hex(), z.imag.hex()) for z in np.asarray(values).tolist()]


def _guarded_member(coeffs, n_lo, t):
    # a family member by the guarded two-window rule, with float chi and two
    # zero pads on either side of the blocks
    c_pad = np.pad(coeffs, 2)
    return experiments._two_window(
        c_pad, *experiments._dyadic_table(build_homogeneous_dyadic(), t, n_lo, c_pad.size))


def _refuse_guarded_table(self, t):
    raise AssertionError("the guarded table was taken")


@pytest.mark.parametrize("n_lo", [-4, 900, -1065])
def test_dyadic_family_direct_table_keeps_the_guarded_bits(monkeypatch, n_lo):
    # on positive finite points inside the padding the family reads the band
    # formula at s = 2 mant in [1, 2) and the column e + const: the bits of
    # the guarded rule at exact powers of two (s = 1), just below them
    # (s = 2 - 2^-52), just above, at and near both ends of the support and
    # at random points; n_lo = -1065 puts blocks among the subnormals
    rng = np.random.default_rng(abs(n_lo))
    coeffs = rng.uniform(0.2, 1.0, (3, 9)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 9)))
    ln2 = np.log(2.0)
    family = DyadicSampleFamily(build_homogeneous_dyadic(), coeffs, n_lo,
                                span=(ln2 * (n_lo - 5), ln2 * (n_lo + 13)))
    powers = np.ldexp(1.0, np.arange(n_lo - 4, n_lo + 12))
    lo, hi = np.exp(family.support)
    ends = np.array([lo, hi])
    t = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                        ends, ends * (1 - 1e-12), ends * (1 + 1e-12), ends * (1 + 1e-3),
                        ends * (1 - 1e-3), 2.0 ** rng.uniform(n_lo - 4, n_lo + 12, 4000)])
    monkeypatch.setattr(DyadicSampleFamily, "_guarded_table", _refuse_guarded_table)
    table = family._table_at(t)
    for k in range(family.size):
        assert _hex_parts(family.member(table, k)) == _hex_parts(
            _guarded_member(coeffs[k], n_lo, t))
    # s = 1 at a power of two 2^m: chi = 1 exactly, so member k reads c_m
    m = np.arange(n_lo - 4, n_lo + 12)
    blocks = (m >= n_lo) & (m < n_lo + 9)
    for k in range(family.size):
        at_powers = family.member(table, k)[:m.size]
        assert np.all(at_powers[blocks] == coeffs[k][m[blocks] - n_lo])
        assert not np.any(at_powers[~blocks])


def test_dyadic_family_takes_the_guarded_table_off_the_positive_finite_range(monkeypatch):
    # a block with a point t <= 0, t = inf or NaN, or outside the padding
    # takes the guarded table, and every point of it keeps the bits of the
    # guarded rule; points from y beyond exp's overflow (709.78) or
    # underflow (-745.13) are inf and 0
    rng = np.random.default_rng(12)
    coeffs = rng.uniform(0.2, 1.0, (2, 9)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 9)))
    family = DyadicSampleFamily(build_homogeneous_dyadic(), coeffs, -4)
    guarded = []
    real = DyadicSampleFamily._guarded_table

    def spy(self, t):
        guarded.append(t.size)
        return real(self, t)

    monkeypatch.setattr(DyadicSampleFamily, "_guarded_table", spy)
    base = 2.0 ** rng.uniform(-5, 5, 64)
    for odd in (0.0, -0.0, -1.0, np.inf, np.nan, 2.0**-8, 2.0**7):
        t = np.append(base, odd)
        guarded.clear()
        table = family._table_at(t)
        assert guarded == [t.size]
        for k in range(family.size):
            assert _hex_parts(family.member(table, k)) == _hex_parts(
                _guarded_member(coeffs[k], -4, t))
    # a family padded up to exp's range: its largest and least finite
    # positive points are direct, inf and 0 guarded
    wide = DyadicSampleFamily(build_homogeneous_dyadic(), coeffs, -4, span=(-746.0, 710.0))
    for odd in (709.7, 709.78, 709.8, 710.0, -745.0, -745.2, -800.0, -np.inf, np.inf, np.nan):
        y = np.append(np.log(base), odd)
        guarded.clear()
        with np.errstate(over="ignore"):
            table = wide.table(y)
            t = np.exp(y)
        assert guarded == ([] if 0.0 < t[-1] < np.inf else [y.size])
        for k in range(wide.size):
            assert _hex_parts(wide.member(table, k)) == _hex_parts(
                _guarded_member(coeffs[k], -4, t))
    # base alone is positive, finite and inside the padding
    guarded.clear()
    family._table_at(base)
    assert guarded == []


def test_multiplier_bound_check_family_reads_every_reachable_point_directly(monkeypatch):
    # the estimator reads the family at x + j h, x in the window, |h| <= 1,
    # j <= M = 2: the padding covers the exponents of both ends of that
    # reach, and the sweep never takes the guarded table
    families = []
    sweep = experiments.besov_family_norms

    def spy(family, *args, **kwargs):
        families.append(family)
        return sweep(family, *args, **kwargs)

    monkeypatch.setattr(experiments, "besov_family_norms", spy)
    monkeypatch.setattr(DyadicSampleFamily, "_guarded_table", _refuse_guarded_table)
    for n in (64, 128):
        op = build_dirichlet_laplacian_1d(n, 1.0)
        multiplier_bound_check(op, 1.5, trials=1, seed=4)
        lo, hi = np.log(op.lambda_min_positive) - 3.0, np.log(op.lambda_max) + 3.0
        families[-1].table(np.linspace(lo - 2.0, hi + 2.0, 1001))


def test_criterion_13_family_rows_are_pinned():
    # the 100 trial rows of criterion 13 at n = 64 (seed 23), each value by
    # float.hex, one line "opnorm mihlin refine_rel" per row, hashed
    out = multiplier_bound_check(build_dirichlet_laplacian_1d(64, 1.0), 1.5, trials=100, seed=23)
    text = "".join(" ".join(float(row[key]).hex() for key in ("opnorm", "mihlin", "refine_rel"))
                   + "\n" for row in out["rows"])
    assert len(out["rows"]) == 100
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3c404b19323b95e11e87ab153980604226e6596d962ccc9d670b1b807f90063f"


def test_type2_one_sided_constant_is_an_equivalence_run():
    # the empirical C of ||x||_4 <= C (sum_n ||phi_n(A)x||_4^2)^(1/2) is the
    # max ratio of ambient over the discrete Besov norm at theta = 0, q = 2,
    # pinned bit for bit to the value of the former per-sample besov loop
    report = run_equivalence({
        "operator": {"kind": "dirichlet1d", "n": 64, "h": 1.0}, "seed": 3, "samples": 10,
        "pnorm": 4, "norm_a": {"kind": "ambient", "pnorm": 4},
        "norm_b": {"kind": "besov_discrete", "theta": 0.0, "q": 2, "pnorm": 4}})
    assert report.ratios["max"] == 1.1666339919093558


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
    # a stack that cannot be built is refused when the experiment is set up
    with pytest.raises(ExperimentError,
                       match="^norm not admitted: symbol exp carries no decay certificate$"):
        run_equivalence(config)
    # a failure on a sample names it: every block index is >= 2, so
    # 2^(-2000 n) underflows to a zero norm_b
    config.update(operator={"kind": "nonnormal", "lambdas": [[8.0, 0.0], [16.0, 0.0]]},
                  norm_a={"kind": "ambient", "pnorm": 2},
                  norm_b={"kind": "pl_square", "theta": -2000})
    with pytest.raises(ExperimentError, match="^non-finite result at sample 0"):
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


def test_resolvent_scan_does_not_depend_on_the_blocking(monkeypatch):
    # the scan's multipliers are formed per block of radii; the sup over
    # the blocks is the sup over the whole grid bit for bit, and 10^7 holds
    # the whole grid in one block
    from plcalc import calculus

    op = build_dirichlet_laplacian_1d(64, 1.0)
    scans = []
    for block in (1, 64, 1000, 10**7):
        monkeypatch.setattr(calculus, "BLOCK_POINTS", block)
        scans.append(resolvent_scan(op, [0.3, 0.6, 1.2]))
    assert all(scan == scans[-1] for scan in scans)


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


HOISTED_NORMS = {
    "pl_square": {"kind": "pl_square", "theta": 0.2},
    "pl_random": {"kind": "pl_random", "count": 64, "theta": 0.3},
    "pl_inhomogeneous": {"kind": "pl_inhomogeneous", "theta": 0.5},
    "besov_discrete": {"kind": "besov_discrete", "theta": 0.4, "q": 3},
    "continuous_square": {"kind": "continuous_square", "theta": 0.1},
    "strip_pl_square": {"kind": "strip_pl_square"},
}


def _public_norm(op, spec, x, pnorm, seed):
    """The norm of one vector through the public norm function."""
    from plcalc.norms import (
        RandomEnsemble,
        besov_discrete_norm,
        continuous_square_norm,
        pl_inhomogeneous_norm,
        pl_random_norm,
        pl_square_norm,
    )
    from plcalc.partitions import build_equidistant, to_inhomogeneous

    hom = build_homogeneous_dyadic()
    kind = spec["kind"]
    if kind == "pl_square":
        return pl_square_norm(op, hom, x, pnorm, spec["theta"])
    if kind == "pl_random":
        ens = RandomEnsemble(seed=seed + 104729, count=spec["count"])
        return pl_random_norm(op, hom, x, pnorm, ens, spec["theta"]).mean
    if kind == "pl_inhomogeneous":
        return pl_inhomogeneous_norm(op, to_inhomogeneous(hom), x, pnorm, spec["theta"])
    if kind == "besov_discrete":
        return besov_discrete_norm(op, hom, x, spec["theta"], spec["q"], pnorm)
    if kind == "continuous_square":
        return continuous_square_norm(op, make_symbol("psi_exp", a=1.0, b=1.0),
                                      spec["theta"], x, pnorm)
    return pl_square_norm(op, build_equidistant(), x, pnorm)


@pytest.mark.parametrize("kind", sorted(HOISTED_NORMS))
@pytest.mark.parametrize("operator, pnorm", [
    ({"kind": "dirichlet1d", "n": 48, "h": 1.0}, 2),
    ({"kind": "dirichlet1d", "n": 48, "h": 1.0}, 4),
    ({"kind": "nonnormal", "lambdas": [[v, 0.0] for v in np.geomspace(0.05, 5.0, 16)],
      "conditioning": 6.0, "seed": 2}, 2),
])
def test_hoisted_evaluator_matches_the_public_norm(kind, operator, pnorm):
    # regenerate the samples of the report from default_rng(seed): each
    # row's norm_a is the public norm function of that sample
    from plcalc.measure import lp_norm
    from plcalc.operators import operator_from_spec

    seed = 13
    spec = HOISTED_NORMS[kind]
    report = run_equivalence({"name": kind, "operator": operator, "seed": seed,
                              "samples": 4, "pnorm": pnorm,
                              "norm_a": dict(spec, pnorm=pnorm),
                              "norm_b": {"kind": "ambient", "pnorm": pnorm}})
    op = operator_from_spec(operator)
    rng = np.random.default_rng(seed)
    for row in report.table:
        x = op.random_vector(rng)
        x = x / lp_norm(x, pnorm, op.measure)
        assert row["norm_a"] == pytest.approx(_public_norm(op, spec, x, pnorm, seed),
                                              rel=1e-13, abs=0)


def test_run_equivalence_builds_each_stack_once(monkeypatch):
    # every x-independent stage (the window stack, the dilation table and
    # the dilation integrals) runs once per run, however many samples it
    # has: the counts at 1 and at 5 samples are the same
    from plcalc import experiments, norms

    def calls_of(run):
        calls = {"block_stack": 0, "_dilation_table": 0, "_dilation_integrals": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                original = getattr(norms, name)

                def counting(*args, _original=original, _name=name):
                    calls[_name] += 1
                    return _original(*args)

                for module in (norms, experiments):
                    if hasattr(module, name):
                        patch.setattr(module, name, counting)
            run()
        return calls

    def count(samples, norm_b):
        return calls_of(lambda: run_equivalence({**overlap_config(samples=samples),
                                                 "norm_b": norm_b}))

    square = {"kind": "continuous_square", "pnorm": 2}
    assert count(1, square) == count(5, square) == {
        "block_stack": 1, "_dilation_table": 0, "_dilation_integrals": 1}
    # the synthesis route of the continuous square function, and the
    # continuous Besov norm, read the table, and only once
    square4 = {"kind": "continuous_square", "pnorm": 4}
    besov = {"kind": "besov_continuous", "theta": 0.5, "q": 2,
             "f": {"kind": "res_frac", "a": 1.0, "b": 2.0}}
    for norm_b in (square4, besov):
        assert count(1, norm_b)["_dilation_table"] == count(5, norm_b)["_dilation_table"] == 1
    # the reproduction check reduces its integrals over node blocks, with no table
    op = build_dirichlet_laplacian_1d(64, 1.0)
    g = make_mcintosh_symbol(make_symbol("psi_exp", a=1.0, b=1.0))
    x = op.random_vector(np.random.default_rng(0))
    assert calls_of(lambda: mcintosh_check(op, g, x)) == {
        "block_stack": 0, "_dilation_table": 0, "_dilation_integrals": 1}
