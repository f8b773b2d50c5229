"""The acceptance battery: every norm-equivalence property the package
promises, runnable as one suite with a pass/fail line per criterion.

Each criterion function returns a CriterionResult; run_all executes the
battery in order.  The pytest acceptance module asserts each result, the
CLI subcommand ``suite acceptance`` prints them.

The sampled two-sided equivalences (criteria 1, 4, 7, 9, the strip half of
11, and 12) are experiment configs: each runs run_equivalence, the path of
``plcalc experiment run``, on operators built from their JSON specs, gates
a bracket through the config's assert_bracket and reads the report's ratio
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import (
    apply_contour,
    apply_spectral,
    bisectorial_projections,
    default_contour_spec,
    even_multiplier_direct,
    even_multiplier_via_projections,
)
from .cli import _encode
from .experiments import (
    make_mcintosh_symbol,
    mcintosh_check,
    multiplier_bound_check,
    resolvent_scan,
    run_equivalence,
)
from .measure import lp_norm
from .norms import (
    QuadratureSpec,
    RandomEnsemble,
    besov_continuous_norm,
    k_functional,
    k_functional_bruteforce,
    norm_from_spec,
    pl_random_norm,
    pl_square_norm,
)
from .operators import (
    build_dirichlet_laplacian_1d,
    build_nonnormal_sectorial,
    build_schrodinger_1d,
    operator_from_spec,
)
from .partitions import build_homogeneous_dyadic
from .symbols import make_symbol, window_symbol

SQRT_HALF = 2.0**-0.5
SANDWICH = [SQRT_HALF - 1e-9, 1.0 + 1e-9]   # the square function against the ambient norm
AMBIENT = {"kind": "ambient"}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d} {self.name}: {self.detail}"


def _hermite_spec(num_modes: int) -> dict:
    # width ~ sqrt(2 lambda_max) + margin keeps the Gram defect under 1e-6
    half = np.sqrt(2.0 * (2.0 * num_modes + 1.0)) + 5.0
    return {"kind": "hermite", "d": 1, "K": num_modes,
            "grid": {"lo": -half, "hi": half, "n": max(500, 40 * num_modes)}}


def criterion_1_overlap_sandwich() -> CriterionResult:
    """Square-block norm of any unit vector sits in [2^-1/2, 1] at p = 2."""
    report = run_equivalence({
        "operator": {"kind": "dirichlet1d", "n": 256, "h": 1.0},
        "norm_a": {"kind": "pl_square"}, "norm_b": AMBIENT,
        "samples": 100, "seed": 11, "assert_bracket": SANDWICH})
    lo, hi = report.ratios["min"], report.ratios["max"]
    return CriterionResult(1, "overlap sandwich", report.passed,
                           f"ratio range [{lo:.12f}, {hi:.12f}] in "
                           f"[{SQRT_HALF:.12f}, 1] (100 samples)")


def criterion_2_fractional_sandwich() -> CriterionResult:
    """Weighted blocks vs ||A^theta x||: within [2^(-|t|-1/2), 2^|t|]."""
    op = operator_from_spec(_hermite_spec(32))
    rng = np.random.default_rng(12)
    details = []
    ok = True
    for theta in (-1.0, 0.5, 1.0):
        lo_b = 2.0 ** (-abs(theta)) * SQRT_HALF * (1 - 1e-9)
        hi_b = 2.0 ** abs(theta) * (1 + 1e-9)
        # each norm spec built once: (norm, echo), the norm a NormPlan
        square = norm_from_spec(op, {"kind": "pl_square", "theta": theta}, 0)()[0]
        frac = norm_from_spec(op, {"kind": "fractional_power", "theta": theta}, 0)()[0]
        lo, hi = np.inf, -np.inf
        for _ in range(50):
            x = op.random_vector(rng)
            x = x / lp_norm(x, 2, op.measure)
            ratio = square(x) / frac(x)
            lo, hi = min(lo, ratio), max(hi, ratio)
        ok = ok and lo >= lo_b and hi <= hi_b
        details.append(f"theta={theta:+.1f}: [{lo:.6f}, {hi:.6f}] in [{lo_b:.6f}, {hi_b:.6f}]")
    return CriterionResult(2, "fractional sandwich", ok, "; ".join(details))


def criterion_3_contour_vs_spectral() -> CriterionResult:
    """Quadrature route matches the spectral route and refines monotonically.

    The certified radii push the truncation tail to ~1e-12 so node error
    dominates at 64 nodes/decade; the contour angle 0.12 puts that error
    near 1e-9 (well under the 1e-8 gate) with three decades of headroom
    for the refinement drop.
    """
    import dataclasses

    n = 128
    xg = (np.arange(1, n + 1) - (n + 1) / 2) * (4.0 / (n + 1))
    op = build_schrodinger_1d(n, 1.0, xg**2)
    rng = np.random.default_rng(13)
    x = op.random_vector(rng)
    x = x / lp_norm(x, 2, op.measure)
    ok = True
    details = []
    for sym in (make_symbol("rho"), make_symbol("psi_exp", a=2.0, b=1.0)):
        exact = apply_spectral(op, sym, x)
        scale = np.linalg.norm(exact)
        errs = []
        for npd in (64, 128):
            spec = default_contour_spec(op, sym, tail_tol=1e-12, nodes_per_decade=npd)
            spec = dataclasses.replace(spec, sigma=0.12)
            y, _ = apply_contour(op, sym, x, spec, tail_tol=1e-10)
            errs.append(float(np.linalg.norm(y - exact) / scale))
        e64, e128 = errs
        ok = ok and e64 <= 1e-8 and e128 < e64
        details.append(f"{sym.name}: err64={e64:.2e}, err128={e128:.2e}")
    return CriterionResult(3, "contour vs spectral", ok, "; ".join(details))


def criterion_4_continuous_square_exactness() -> CriterionResult:
    """psi(t) = t e^-t at p inner 2, theta 0: value = 0.5 ||x|| to 1e-6."""
    report = run_equivalence({
        "operator": {"kind": "dirichlet1d", "n": 64, "h": 1.0},
        "norm_a": {"kind": "continuous_square", "psi": {"kind": "psi_exp", "a": 1.0, "b": 1.0}},
        "norm_b": AMBIENT, "samples": 10, "seed": 14, "assert_bracket": [0.5 - 1e-6, 0.5 + 1e-6]})
    worst = max(abs(report.ratios["min"] - 0.5), abs(report.ratios["max"] - 0.5))
    return CriterionResult(4, "continuous square exactness", report.passed,
                           f"max |value - 1/2| = {worst:.2e} over 10 unit vectors")


def criterion_5_mcintosh() -> CriterionResult:
    """Normalized |psi|^2 scale integral reproduces x to 1e-6."""
    op = build_dirichlet_laplacian_1d(96, 1.0)
    g = make_mcintosh_symbol(make_symbol("psi_exp", a=1.0, b=1.0))
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(20):
        x = op.random_vector(rng)
        worst = max(worst, mcintosh_check(op, g, x))
    return CriterionResult(5, "reproduction from scale integral", worst <= 1e-6,
                           f"max residual {worst:.2e} over 20 vectors")


def criterion_6_rademacher_square() -> CriterionResult:
    """MC mean of squared random block sums matches sum of squared block
    norms within 3 standard errors, 256 samples, 20 vectors."""
    op = build_dirichlet_laplacian_1d(128, 1.0)
    hom = build_homogeneous_dyadic()
    rng = np.random.default_rng(16)
    worst = 0.0
    ok = True
    for k in range(20):
        x = op.random_vector(rng)
        x = x / lp_norm(x, 2, op.measure)
        res = pl_random_norm(op, hom, x, 2, RandomEnsemble(seed=16000 + k, count=256))
        sq_samples = res.samples**2
        mc_mean = float(np.mean(sq_samples))
        mc_se = float(np.std(sq_samples, ddof=1) / np.sqrt(sq_samples.size))
        exact = pl_square_norm(op, hom, x, 2) ** 2
        z = abs(mc_mean - exact) / mc_se
        worst = max(worst, z)
        ok = ok and z <= 3.0
    return CriterionResult(6, "randomized/square consistency", ok,
                           f"max |z| = {worst:.2f} (3 sigma gate, 20 vectors)")


def criterion_7_besov_continuous_discrete() -> CriterionResult:
    """Continuous Besov norm: substitution identity on eigenvectors and a
    size-stable ratio bracket against the discrete block norm."""
    f0 = window_symbol(build_homogeneous_dyadic(), 0)
    theta, q = 0.5, 2
    # eigenvector substitution identity across lambda in {1, 3, 9, 27}
    op16 = operator_from_spec(_hermite_spec(16))
    lam = np.real(op16.eigenvalues_or_none())
    base = QuadratureSpec.cover(op16)
    consts = []
    for target in (1.0, 3.0, 9.0, 27.0):
        k = int(np.argmin(np.abs(lam - target)))
        x = op16.synthesize(np.eye(lam.size)[k])
        val = besov_continuous_norm(op16, x, theta, q, f0, 2, base.scaled(1.0 / lam[k]))
        consts.append(val / lam[k] ** theta)
    spread = (max(consts) - min(consts)) / max(consts)
    ok = spread <= 1e-6
    # random-vector ratio across mode counts; f defaults to window 0 of the
    # homogeneous partition and the quadrature to QuadratureSpec.cover
    med = {modes: run_equivalence({
        "operator": _hermite_spec(modes),
        "norm_a": {"kind": "besov_continuous", "theta": theta, "q": q},
        "norm_b": {"kind": "besov_discrete", "theta": theta, "q": q},
        "samples": 15, "seed": 17 + modes}).ratios["median"] for modes in (8, 16, 32)}
    stable = max(med.values()) / min(med.values()) <= 2.0
    ok = ok and stable
    return CriterionResult(
        7, "continuous vs discrete Besov", ok,
        f"substitution spread {spread:.2e}; median ratios "
        + ", ".join(f"K={m}: {v:.4f}" for m, v in med.items()))


def criterion_8_k_functional() -> CriterionResult:
    """Scalar closed form, brute-force oracle at n <= 6, concavity."""
    # scalar case: K(t) = min(1, t lambda) |x|
    op1 = build_nonnormal_sectorial([2.0 + 0j], 1.0, 18)
    x1 = np.array([1.0 + 0j])
    worst_scalar = 0.0
    for t in np.logspace(-3, 3, 25):
        k = k_functional(op1, x1, t, 0.0, 1.0)
        worst_scalar = max(worst_scalar, abs(k - min(1.0, t * 2.0)))
    ok = worst_scalar <= 1e-10
    # brute force agreement in the balanced regime (see the oracle docstring)
    op6 = build_dirichlet_laplacian_1d(6, 1.0)
    norm_ax = norm_from_spec(op6, {"kind": "fractional_power", "theta": 1.0}, 0)()[0]
    rng = np.random.default_rng(18)
    worst_bf = 0.0
    for _ in range(5):
        x = op6.random_vector(rng)
        x = x / lp_norm(x, 2, op6.measure)
        n1 = norm_ax(x)
        for t in (0.3 / n1, 0.5 / n1, 1.0 / n1):
            ka = k_functional(op6, x, t, 0.0, 1.0)
            kb = k_functional_bruteforce(op6, x, t, 0.0, 1.0)
            worst_bf = max(worst_bf, abs(ka - kb) / max(kb, 1e-300))
    ok = ok and worst_bf <= 1e-6
    # monotone nondecreasing and concave on a 50-point log grid
    op = build_dirichlet_laplacian_1d(32, 1.0)
    x = op.random_vector(np.random.default_rng(19))
    x = x / lp_norm(x, 2, op.measure)
    ts = np.logspace(-4, 4, 50)
    ks = k_functional(op, x, ts, 0.0, 1.0)
    mono = bool(np.all(np.diff(ks) >= -1e-9 * ks[:-1]))
    # concavity in t: second divided differences nonpositive
    dd = np.diff(ks) / np.diff(ts)
    concave = bool(np.all(np.diff(dd) <= 1e-9 * max(ks)))
    ok = ok and mono and concave
    return CriterionResult(
        8, "K-functional", ok,
        f"scalar err {worst_scalar:.1e}; brute-force rel err {worst_bf:.1e}; "
        f"monotone={mono}, concave={concave}")


def criterion_9_interpolation_identification() -> CriterionResult:
    """Interpolation norm vs discrete Besov norm: bracket stable in size."""
    med = {n: run_equivalence({
        "operator": {"kind": "dirichlet1d", "n": n, "h": 1.0},
        "norm_a": {"kind": "real_interpolation", "vartheta": 0.5, "q": 2,
                   "theta0": 0.0, "theta1": 1.0},
        "norm_b": {"kind": "besov_discrete", "theta": 0.5, "q": 2},
        "samples": 10, "seed": 19 + n}).ratios["median"] for n in (64, 128, 256)}
    stable = max(med.values()) / min(med.values()) <= 2.0
    return CriterionResult(
        9, "real interpolation identification", stable,
        "median ratios " + ", ".join(f"n={n}: {v:.4f}" for n, v in med.items()))


def criterion_10_resolvent_scan() -> CriterionResult:
    """Self-adjoint rays obey sup <= 1/sin(omega); fitted growth order ~ 1."""
    op = build_dirichlet_laplacian_1d(64, 1.0)
    omegas = np.linspace(0.01, 0.5, 9)
    scan = resolvent_scan(op, omegas)
    ok = True
    worst = -np.inf
    for row in scan["rows"]:
        bound = 1.0 / np.sin(row["omega"])
        worst = max(worst, row["sup"] - bound)
        ok = ok and row["sup"] <= bound + 1e-9
    alpha = scan["fitted_alpha"]
    ok = ok and 0.9 <= alpha <= 1.1
    return CriterionResult(10, "resolvent growth scan", ok,
                           f"max (sup - 1/sin) = {worst:.2e}, fitted alpha = {alpha:.3f}")


def criterion_11_strip_bisectorial() -> CriterionResult:
    """Equidistant blocks of log(A) obey the sandwich; double-sector
    projections resolve the identity and agree with the direct route."""
    strip = run_equivalence({
        "operator": _hermite_spec(24), "norm_a": {"kind": "strip_pl_square"},
        "norm_b": AMBIENT, "samples": 25, "seed": 21, "assert_bracket": SANDWICH})
    lo, hi = strip.ratios["min"], strip.ratios["max"]
    # double sector
    rng = np.random.default_rng(21)
    lams = [1.0, 2.0, 4.0, -1.0, -2.0, -4.0, 1.5, -3.0]
    bis = build_nonnormal_sectorial(lams, 5.0, 21)
    p1, p2 = bisectorial_projections(bis)
    resolution = float(np.linalg.norm(p1 + p2 - np.eye(bis.n)))
    hom = build_homogeneous_dyadic()
    f = lambda s: hom.window(0, s)
    worst_dual = 0.0
    for _ in range(10):
        x = bis.random_vector(rng)
        x = x / np.linalg.norm(x)
        ya = even_multiplier_direct(bis, f, x)
        yb = even_multiplier_via_projections(bis, f, x)
        worst_dual = max(worst_dual, float(np.linalg.norm(ya - yb)))
    ok = strip.passed and resolution <= 1e-10 and worst_dual <= 1e-10
    return CriterionResult(
        11, "strip and double-sector variants", ok,
        f"strip sandwich [{lo:.6f}, {hi:.6f}]; ||P1+P2-I|| = {resolution:.1e}; "
        f"even dual-path gap {worst_dual:.1e}")


def criterion_12_noninjective() -> CriterionResult:
    """Graph Laplacians: kernel split norm is a reproducible finite bracket
    and the constants really are in the kernel."""
    two = [[1.0, 1.0], [1.0, 1.0]]
    path4 = (np.eye(4) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)).tolist()
    ok = True
    details = []
    for name, sigma in (("two-node", two), ("path-4", path4)):
        spec = {"kind": "graph", "sigma": sigma}
        op = operator_from_spec(spec)
        az = op.apply(np.ones(op.n, dtype=complex))
        kernel_ok = float(np.max(np.abs(az))) <= 1e-13
        # run_equivalence refuses a non-finite ratio, and the bracket is positive
        config = {"operator": spec, "norm_a": {"kind": "kernel_plus_pl"}, "norm_b": AMBIENT,
                  "samples": 40, "seed": 22,
                  "assert_bracket": [SQRT_HALF - 1e-9, np.sqrt(2.0) + 1e-9]}
        first, second = run_equivalence(config), run_equivalence(config)
        reproducible = first.table == second.table
        lo, hi = first.ratios["min"], first.ratios["max"]
        ok = ok and kernel_ok and reproducible and first.passed
        details.append(f"{name}: bracket [{lo:.6f}, {hi:.6f}], A(const)={float(np.max(np.abs(az))):.1e}")
    return CriterionResult(12, "non-injective handling", ok, "; ".join(details))


def criterion_13_multiplier_bound() -> CriterionResult:
    """Converse direction: ||f(A)|| / ||f|| stable across operator sizes."""
    maxima = {}
    for n in (64, 128, 256):
        op = build_dirichlet_laplacian_1d(n, 1.0)
        out = multiplier_bound_check(op, alpha=1.5, trials=100, seed=23)
        maxima[n] = out["max_ratio"]
    stable = max(maxima.values()) / min(maxima.values()) <= 2.0
    return CriterionResult(
        13, "converse multiplier bound", stable,
        "max ratios " + ", ".join(f"n={n}: {v:.4f}" for n, v in maxima.items()))


def criterion_14_determinism() -> CriterionResult:
    """Same config, same seed: byte-identical experiment reports."""
    config = {
        "name": "determinism-probe",
        "operator": {"kind": "dirichlet1d", "n": 64, "h": 1.0},
        "norm_a": {"kind": "pl_square", "pnorm": 2},
        "norm_b": {"kind": "ambient", "pnorm": 2},
        "samples": 25,
        "seed": 24,
        "assert_bracket": [SQRT_HALF - 1e-9, 1.0 + 1e-9],
    }
    # the bytes `plcalc experiment run` writes for each report
    first = run_equivalence(config)
    blob_a = _encode(first.to_json()).encode()
    blob_b = _encode(run_equivalence(config).to_json()).encode()
    ok = blob_a == blob_b
    passed = ok and first.passed
    return CriterionResult(14, "determinism", passed,
                           f"byte-identical={ok}, bracket passed={passed}")


ALL_CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1_overlap_sandwich,
    criterion_2_fractional_sandwich,
    criterion_3_contour_vs_spectral,
    criterion_4_continuous_square_exactness,
    criterion_5_mcintosh,
    criterion_6_rademacher_square,
    criterion_7_besov_continuous_discrete,
    criterion_8_k_functional,
    criterion_9_interpolation_identification,
    criterion_10_resolvent_scan,
    criterion_11_strip_bisectorial,
    criterion_12_noninjective,
    criterion_13_multiplier_bound,
    criterion_14_determinism,
]


def run_all(echo: Callable[[str], None] | None = None) -> list[CriterionResult]:
    results = []
    for crit in ALL_CRITERIA:
        res = crit()
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
