"""Block norms, continuous square functions, Besov norms, K-functionals."""

import warnings

import numpy as np
import pytest

from plcalc import norms
from plcalc.calculus import log_operator
from plcalc.measure import lp_norm
from plcalc.norms import (
    NormsError,
    QuadratureSpec,
    RandomEnsemble,
    _diagonal_data,
    _k_functional_diagonal,
    besov_continuous_norm,
    besov_discrete_norm,
    continuous_square_norm,
    k_functional,
    k_functional_bruteforce,
    pl_inhomogeneous_norm,
    pl_random_norm,
    pl_square_norm,
    real_interpolation_norm,
)
from plcalc.operators import (
    build_dirichlet_laplacian_1d,
    build_hermite_operator,
    build_nonnormal_sectorial,
    uniform_grid,
)
from plcalc.partitions import build_equidistant, build_homogeneous_dyadic, to_inhomogeneous
from plcalc.symbols import make_symbol, window_symbol

SQRT_HALF = 2.0**-0.5


@pytest.fixture(scope="module")
def hom():
    return build_homogeneous_dyadic()


@pytest.fixture(scope="module")
def hermite16():
    half = np.sqrt(2 * 33.0) + 5.0
    return build_hermite_operator(1, 16, uniform_grid(-half, half, 700))


def test_pl_square_eigenvector_plateau(hom):
    # eigenvector at lambda = 1: window 0 equals 1 there, neighbours vanish
    op = build_dirichlet_laplacian_1d(2, 1.0)    # eigenvalues 1 and 3
    x = op.form.eigenvectors[:, 0]
    val = pl_square_norm(op, hom, x, 2)
    assert val == pytest.approx(lp_norm(x, 2, op.measure), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_pl_square_overlap_bracket(seed, hom):
    op = build_dirichlet_laplacian_1d(64, 1.0)
    rng = np.random.default_rng(seed)
    x = op.random_vector(rng)
    x /= lp_norm(x, 2, op.measure)
    r = pl_square_norm(op, hom, x, 2)
    assert SQRT_HALF - 1e-9 <= r <= 1.0 + 1e-9
    assert pl_square_norm(op, hom, x, 2, theta=0.0) == r   # 2^0 = 1


def test_pl_random_single_block_has_zero_stderr(hom):
    op = build_dirichlet_laplacian_1d(2, 1.0)
    x = op.form.eigenvectors[:, 0]
    res = pl_random_norm(op, hom, x, 2, RandomEnsemble(seed=1, count=64))
    assert res.stderr == pytest.approx(0.0, abs=1e-14)
    assert res.mean == pytest.approx(lp_norm(x, 2, op.measure), rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_pl_random_square_mean_identity(seed, hom):
    # E||sum eps_n y_n||_2^2 = sum ||y_n||_2^2 for independent signs
    op = build_dirichlet_laplacian_1d(48, 1.0)
    rng = np.random.default_rng(seed)
    x = op.random_vector(rng)
    x /= lp_norm(x, 2, op.measure)
    res = pl_random_norm(op, hom, x, 2, RandomEnsemble(seed=seed + 100, count=256))
    sq = res.samples**2
    mc, se = float(np.mean(sq)), float(np.std(sq, ddof=1) / np.sqrt(sq.size))
    exact = pl_square_norm(op, hom, x, 2) ** 2
    assert abs(mc - exact) <= 3.0 * se


def test_pl_random_gaussian_rademacher_comparable(hom):
    op = build_dirichlet_laplacian_1d(64, 1.0)
    rng = np.random.default_rng(7)
    x = op.random_vector(rng)
    x /= lp_norm(x, 4, op.measure)
    rad = pl_random_norm(op, hom, x, 4, RandomEnsemble(seed=8, count=512))
    gau = pl_random_norm(op, hom, x, 4, RandomEnsemble(seed=9, count=512, kind="gaussian"))
    assert 0.5 <= gau.mean / rad.mean <= 2.0


def test_pl_inhomogeneous_small_spectrum_reduces_to_identity(hom):
    # spectrum inside (0, 1]: phi_0 is identically 1 there
    op = build_dirichlet_laplacian_1d(4, 2.0)
    assert op.lambda_max <= 1.0
    inh = to_inhomogeneous(hom)
    rng = np.random.default_rng(0)
    x = op.random_vector(rng)
    val = pl_inhomogeneous_norm(op, inh, x, 2, theta=0.0)
    assert val == pytest.approx(lp_norm(x, 2, op.measure), rel=1e-12)


def test_pl_inhomogeneous_eigenvector_block_weight(hom, hermite16):
    # eigenvector at lambda = 4 = 2^2: only block n=2 alive, weight 2^(2 theta)
    inh = to_inhomogeneous(hom)
    lam = np.real(hermite16.eigenvalues_or_none())
    hit = np.isclose(lam, 4.0)
    if not hit.any():
        op = build_nonnormal_sectorial([4.0], 1.0, 0)
        x = np.array([1.0 + 0j])
    else:
        op, x = hermite16, hermite16.form.eigenvectors[:, int(np.argmax(hit))]
    val = pl_inhomogeneous_norm(op, inh, x, 2, theta=1.0)
    assert val == pytest.approx(4.0 * lp_norm(x, 2, op.measure), rel=1e-10)


def test_pl_inhomogeneous_zero_vector(hom):
    op = build_dirichlet_laplacian_1d(8, 1.0)
    inh = to_inhomogeneous(hom)
    assert pl_inhomogeneous_norm(op, inh, np.zeros(8), 2, theta=0.5) == 0.0
    with pytest.raises(NormsError):
        pl_inhomogeneous_norm(op, inh, np.zeros(8), 2, theta=-1.0)
    with pytest.raises(NormsError):
        pl_inhomogeneous_norm(op, hom, np.zeros(8), 2)


def test_overflowing_block_weights_raise_without_warning(hom):
    # 2^(2000 n) overflows: the norm raises instead of returning NaN
    op = build_dirichlet_laplacian_1d(16, 1.0)
    x = op.random_vector(np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormsError, match="non-finite.*2000"):
            pl_square_norm(op, hom, x, 2, theta=2000)
        with pytest.raises(NormsError, match="non-finite.*2000"):
            besov_discrete_norm(op, hom, x, 2000, 2)


def test_continuous_square_exactness_and_zero():
    op = build_dirichlet_laplacian_1d(32, 1.0)
    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    rng = np.random.default_rng(1)
    x = op.random_vector(rng)
    x /= lp_norm(x, 2, op.measure)
    # int t e^{-2t} dt = 1/4, so the square function equals 0.5 ||x||
    assert continuous_square_norm(op, psi, 0.0, x, 2) == pytest.approx(0.5, abs=1e-6)
    assert continuous_square_norm(op, psi, 0.0, np.zeros(32), 2) == 0.0


def test_continuous_square_eigenvector_weighted():
    op = build_dirichlet_laplacian_1d(32, 1.0)
    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    lam = np.real(op.eigenvalues_or_none())
    k = 20
    x = op.form.eigenvectors[:, k]
    theta = 0.5
    got = continuous_square_norm(op, psi, theta, x, 2)
    # substitution: value = lambda^theta * (int |s^-theta psi(s)|^2 ds/s)^(1/2)
    t = np.logspace(-10, 5, 200000)
    du = np.log(t[1] / t[0])
    c = du * np.sum(np.abs(t**-theta * psi(t)) ** 2)
    assert got == pytest.approx(lam[k] ** theta * np.sqrt(c), rel=1e-6)


def test_continuous_square_requires_supported_certificate():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    x = np.ones(8)
    bare = make_symbol("exp")     # no decay certificate
    with pytest.raises(NormsError):
        continuous_square_norm(op, bare, 0.0, x, 2)
    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    with pytest.raises(NormsError):
        continuous_square_norm(op, psi, 1.5, x, 2)   # eps0 = 1 < theta
    with pytest.raises(NormsError):
        continuous_square_norm(op, psi, 0.0, x, 2,
                               QuadratureSpec(0.5, 2.0, 32))   # tails visible


def test_besov_discrete_eigenvector_and_homogeneity(hom, hermite16):
    lam = np.real(hermite16.eigenvalues_or_none())
    k = int(np.argmax(np.isclose(lam, 4.0)))   # 2n+1 = ... includes 4? no
    # build an eigenvector at a dyadic point via a scalar operator instead
    op = build_nonnormal_sectorial([4.0], 1.0, 0)
    x = np.array([1.0 + 0j])
    v_inf = besov_discrete_norm(op, hom, x, theta=0.0, q=np.inf, pnorm=2)
    assert v_inf == pytest.approx(lp_norm(x, 2, op.measure), rel=1e-12)
    rng = np.random.default_rng(2)
    opd = build_dirichlet_laplacian_1d(16, 1.0)
    y = opd.random_vector(rng)
    c = 2.3 - 1.1j
    assert besov_discrete_norm(opd, hom, c * y, 0.5, 2, 2) == pytest.approx(
        abs(c) * besov_discrete_norm(opd, hom, y, 0.5, 2, 2), rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_besov_discrete_q2_equals_pl_square_at_p2(seed, hom):
    # per-block Parseval at p = 2 makes the two square forms coincide
    op = build_dirichlet_laplacian_1d(32, 1.0)
    rng = np.random.default_rng(seed)
    x = op.random_vector(rng)
    x /= lp_norm(x, 2, op.measure)
    a = besov_discrete_norm(op, hom, x, 0.0, 2, 2)
    b = pl_square_norm(op, hom, x, 2)
    assert a == pytest.approx(b, rel=1e-12)
    assert SQRT_HALF - 1e-9 <= a <= 1 + 1e-9


def test_besov_continuous_eigenvector_substitution(hom, hermite16):
    f0 = window_symbol(hom, 0)
    lam = np.real(hermite16.eigenvalues_or_none())
    theta, q = 0.5, 2
    base = QuadratureSpec.cover(hermite16)
    consts = []
    for target in (1.0, 3.0, 9.0):
        k = int(np.argmin(np.abs(lam - target)))
        x = hermite16.form.eigenvectors[:, k]
        val = besov_continuous_norm(hermite16, x, theta, q, f0, 2,
                                    base.scaled(1.0 / lam[k]))
        consts.append(val / lam[k] ** theta)
    assert max(consts) - min(consts) <= 1e-9 * max(consts)


def test_besov_continuous_zero_and_admission(hom):
    op = build_dirichlet_laplacian_1d(8, 1.0)
    f0 = window_symbol(hom, 0)
    assert besov_continuous_norm(op, np.zeros(8), 0.5, 2, f0, 2) == 0.0
    with pytest.raises(NormsError):
        besov_continuous_norm(op, np.ones(8), 0.5, 2, make_symbol("imag_power", s=1.0), 2)
    # psi_exp admitted only when a > theta
    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    with pytest.raises(NormsError):
        besov_continuous_norm(op, np.ones(8), 1.5, 2, psi, 2)


@pytest.mark.parametrize("seed", range(2))
def test_besov_continuous_vs_discrete_bracket(seed, hom, hermite16):
    f0 = window_symbol(hom, 0)
    rng = np.random.default_rng(seed)
    x = hermite16.random_vector(rng)
    x /= lp_norm(x, 2, hermite16.measure)
    num = besov_continuous_norm(hermite16, x, 0.5, 2, f0, 2,
                                QuadratureSpec.cover(hermite16))
    den = besov_discrete_norm(hermite16, hom, x, 0.5, 2, 2)
    assert 0.2 <= num / den <= 5.0


def test_k_functional_scalar_closed_form():
    op = build_nonnormal_sectorial([3.0], 1.0, 0)
    x = np.array([1.0 + 0j])
    for t in np.logspace(-3, 3, 21):
        assert k_functional(op, x, t, 0.0, 1.0) == pytest.approx(
            min(1.0, 3.0 * t), abs=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_k_functional_bruteforce_agreement(seed):
    op = build_dirichlet_laplacian_1d(5, 1.0)
    rng = np.random.default_rng(seed)
    x = op.random_vector(rng)
    x /= lp_norm(x, 2, op.measure)
    # balanced regime: t near ||x||_0 / ||x||_1 (see the oracle docstring)
    lam = np.real(op.eigenvalues_or_none())
    n1 = np.sqrt(np.sum(np.abs(lam * op.coefficients(x)) ** 2))
    for t in (0.3 / n1, 0.5 / n1, 1.0 / n1):
        ka = k_functional(op, x, t, 0.0, 1.0)
        kb = k_functional_bruteforce(op, x, t, 0.0, 1.0)
        assert abs(ka - kb) <= 1e-6 * kb


def test_k_functional_monotone_concave():
    op = build_dirichlet_laplacian_1d(24, 1.0)
    x = op.random_vector(np.random.default_rng(4))
    x /= lp_norm(x, 2, op.measure)
    ts = np.logspace(-3, 3, 50)
    ks = k_functional(op, x, ts, 0.0, 1.0)
    assert np.all(np.diff(ks) >= -1e-9 * ks[:-1])
    slopes = np.diff(ks) / np.diff(ts)
    assert np.all(np.diff(slopes) <= 1e-9 * np.max(ks))


def split_path(lam, a, theta0, theta1, cs):
    """(mu^2, nu^2/c^2) of the diagonal splits y = a/(1 + c rho), c in cs:
    mu = ||A^theta0 y||, nu = ||A^theta1 (a - y)||, rho = lam^(2 (theta0 - theta1))."""
    u, v = lam**theta0, lam**theta1
    rho = (u / v) ** 2
    denom = 1 + cs[:, None] * rho
    return np.sum((u * a / denom) ** 2, axis=1), np.sum((v * a * rho / denom) ** 2, axis=1)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("theta0, theta1", [(0.0, 1.0), (0.0, 0.5), (-0.5, 1.5)])
def test_k_functional_vector_core_vs_dense_scan(n, theta0, theta1):
    # K at every t is no larger than the least objective on a dense log-c
    # scan of the split path plus the two boundary splits
    op = build_dirichlet_laplacian_1d(n, 1.0)
    x = op.random_vector(np.random.default_rng(n))
    x /= lp_norm(x, 2, op.measure)
    lam, a = _diagonal_data(op, x)
    # also every t whose stationarity residual vanishes exactly on a node of
    # the solver's bracketing grid: it still needs an interior candidate
    mu2, nu2 = split_path(lam, a, theta0, theta1, np.logspace(-30, 30, 121))
    on_node = np.sqrt(nu2 / mu2)
    on_node = on_node[nu2 == on_node**2 * mu2]
    ts = np.concatenate([np.logspace(-8, 8, 33), on_node])
    ks = _k_functional_diagonal(lam, a, ts, theta0, theta1)
    cs = np.logspace(-32, 32, 4097)
    mu2, nu2 = split_path(lam, a, theta0, theta1, cs)
    scan = np.min(np.sqrt(mu2) + ts[:, None] * cs * np.sqrt(nu2), axis=1)
    scan = np.minimum(scan, np.minimum(np.linalg.norm(lam**theta0 * a),      # x0 = x
                                       ts * np.linalg.norm(lam**theta1 * a)))  # x1 = x
    assert on_node.size > 20
    assert np.all(ks <= scan * (1 + 1e-12))


def test_k_functional_path_ratio_nonincreasing():
    # g(c)^2 = nu^2/(c mu)^2 is nonincreasing along the split path, so the
    # stationarity residual c mu (g - t) changes sign at most once
    rng = np.random.default_rng(7)
    cs = np.logspace(-30, 30, 2001)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        lam = np.exp(rng.uniform(-12, 4, n))
        a = rng.uniform(0, 1, n) * (rng.uniform(size=n) < 0.8)
        theta0, theta1 = np.sort(rng.uniform(-1.5, 2.0, 2))
        if not a.any() or theta1 - theta0 < 1e-3:
            continue
        mu2, nu2 = split_path(lam, a, theta0, theta1, cs)
        ok = (mu2 > 0) & (nu2 > 0)
        assert np.all(np.diff(np.log(nu2[ok] / mu2[ok])) <= 1e-12)


def test_real_interpolation_batched_k_matches_scalar(monkeypatch):
    op = build_dirichlet_laplacian_1d(32, 1.0)
    x = op.random_vector(np.random.default_rng(2))
    x /= lp_norm(x, 2, op.measure)
    calls = []

    def recording(lam, a, t, theta0, theta1):
        k = _k_functional_diagonal(lam, a, t, theta0, theta1)
        calls.append((t, k))
        return k

    monkeypatch.setattr(norms, "_k_functional_diagonal", recording)
    real_interpolation_norm(op, x, 0.4, 2, -0.5, 1.5)
    monkeypatch.undo()
    assert calls and all(t.size > 1 for t, _ in calls)
    for t, k in calls:
        scalar = [k_functional(op, x, tj, -0.5, 1.5) for tj in t]
        np.testing.assert_allclose(k, scalar, rtol=1e-14, atol=0)


def test_k_functional_array_of_t_matches_scalar_calls():
    op = build_dirichlet_laplacian_1d(32, 1.0)
    x = op.random_vector(np.random.default_rng(5))
    x /= lp_norm(x, 2, op.measure)
    ts = np.logspace(-6, 6, 41)
    for theta0, theta1 in [(0.0, 1.0), (-0.5, 1.5)]:
        ks = k_functional(op, x, ts, theta0, theta1)
        scalar = [k_functional(op, x, t, theta0, theta1) for t in ts]
        assert isinstance(scalar[0], float) and ks.shape == ts.shape
        np.testing.assert_allclose(ks, scalar, rtol=1e-14, atol=0)


def test_k_functional_guards():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    x = np.ones(4)
    with pytest.raises(NormsError):
        k_functional(op, x, 1.0, 0.0, 1.0, pnorm=4)
    with pytest.raises(NormsError):
        k_functional(op, x, -1.0, 0.0, 1.0)
    with pytest.raises(NormsError):
        k_functional(op, x, np.array([1.0, 0.0]), 0.0, 1.0)
    with pytest.raises(NormsError):
        k_functional(op, x, np.ones((2, 2)), 0.0, 1.0)


def test_real_interpolation_eigenvector_scaling():
    # single eigenvalue: K(t) = min(1, t lambda), and the vartheta = 1/2,
    # q = 2 integral is exactly 2, so the norm is sqrt(2) lambda^(1/2)
    vals = {}
    for lam in (0.25, 1.0, 16.0):
        op = build_nonnormal_sectorial([lam], 1.0, 0)
        x = np.array([1.0 + 0j])
        v = real_interpolation_norm(op, x, 0.5, 2, 0.0, 1.0)
        vals[lam] = v / lam**0.5
    ref = vals[1.0]
    # absolute constant carries the trapezoid kink error of min(1, s)^2
    assert ref == pytest.approx(np.sqrt(2.0), rel=1e-3)
    for lam, v in vals.items():
        assert v == pytest.approx(ref, rel=1e-9)


def test_real_interpolation_zero_vector():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    assert real_interpolation_norm(op, np.zeros(4), 0.5, 2) == 0.0


@pytest.mark.parametrize("seed", range(2))
def test_real_interpolation_vs_besov_bracket(seed, hom):
    op = build_dirichlet_laplacian_1d(48, 1.0)
    rng = np.random.default_rng(seed)
    x = op.random_vector(rng)
    x /= lp_norm(x, 2, op.measure)
    num = real_interpolation_norm(op, x, 0.5, 2, 0.0, 1.0)
    den = besov_discrete_norm(op, hom, x, 0.5, 2, 2)
    assert 0.5 <= num / den <= 5.0


def test_strip_square_norm_sandwich():
    half = np.sqrt(2 * 25.0) + 5.0
    op = build_hermite_operator(1, 12, uniform_grid(-half, half, 600))
    strip = log_operator(op)
    equi = build_equidistant()
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = op.random_vector(rng)
        x /= lp_norm(x, 2, op.measure)
        r = pl_square_norm(strip, equi, x, 2)
        assert SQRT_HALF - 1e-9 <= r <= 1.0 + 1e-9
    with pytest.raises(NormsError):
        pl_square_norm(strip, build_homogeneous_dyadic(), x, 2)


def test_quadrature_spec_validation():
    with pytest.raises(NormsError):
        QuadratureSpec(2.0, 1.0)
    with pytest.raises(NormsError):
        QuadratureSpec(1.0, 2.0, nodes_per_decade=2)
    with pytest.raises(NormsError):
        RandomEnsemble(seed=0, count=0)
    with pytest.raises(NormsError):
        RandomEnsemble(seed=0, kind="uniform")


def test_bisectorial_pl_split_identity(hom):
    # normal double-sector operator: even-window blocks decompose exactly
    # over the two spectral projections at p = 2
    from plcalc.calculus import bisectorial_projections
    from plcalc.partitions import even_extension

    lams = [1.0, 2.0, -1.0, -4.0]
    op = build_nonnormal_sectorial(lams, 1.0, seed=3)
    even = even_extension(hom)
    p1, p2 = bisectorial_projections(op)
    rng = np.random.default_rng(3)
    x = op.random_vector(rng)
    x /= lp_norm(x, 2, op.measure)
    whole = pl_square_norm(op, even, x, 2)
    part1 = pl_square_norm(op, even, p1.p @ x, 2)
    part2 = pl_square_norm(op, even, p2.p @ x, 2)
    assert whole**2 == pytest.approx(part1**2 + part2**2, rel=1e-10)
    # non-normal case: two-sided bracket with the projection norms
    opk = build_nonnormal_sectorial(lams, 5.0, seed=3)
    q1, q2 = bisectorial_projections(opk)
    xk = opk.random_vector(rng)
    xk /= lp_norm(xk, 2, opk.measure)
    whole = pl_square_norm(opk, even, xk, 2)
    split = pl_square_norm(opk, even, q1.p @ xk, 2) + pl_square_norm(opk, even, q2.p @ xk, 2)
    cmax = max(np.linalg.norm(q1.p, 2), np.linalg.norm(q2.p, 2))
    assert whole <= split * (1 + 1e-12)      # triangle on the even blocks
    assert split <= 2 * cmax * whole * (1 + 1e-12)


def test_even_windows_accept_complex_spectrum(hom):
    # normal operator with a non-real double-sector spectrum: the even
    # windows see only |lambda|, so the overlap sandwich holds; the
    # half-line windows reject the complex spectrum
    from plcalc.partitions import even_extension

    op = build_nonnormal_sectorial([1 + 0.2j, 2, -1.5 + 0.1j, -3], 1.0, 0)
    x = op.random_vector(np.random.default_rng(8))
    x /= lp_norm(x, 2, op.measure)
    assert SQRT_HALF - 1e-9 <= pl_square_norm(op, even_extension(hom), x, 2) <= 1.0 + 1e-9
    with pytest.raises(NormsError, match="complex spectrum"):
        pl_square_norm(op, hom, x, 2)


def _bruteforce_point_list(op, x, t, rounds, grid):
    """The oracle's search over an explicit (grid^n, n) point list."""
    lam, a = _diagonal_data(op, x)
    u, v = lam**0.0, lam**1.0
    lo, hi = np.zeros(a.size), a.copy()
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], grid) for k in range(a.size)]
        y = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        val = np.sqrt(((y * u) ** 2).sum(axis=1)) + t * np.sqrt((((a - y) * v) ** 2).sum(axis=1))
        best = y[int(np.argmin(val))]
        span = (hi - lo) / (grid - 1)
        at_edge = ((best <= lo + 1e-30) & (lo > 1e-30)) | ((best >= hi - 1e-30) & (hi < a - 1e-30))
        width = np.where(at_edge, 4.0 * span, 1.5 * span)
        lo, hi = np.maximum(best - width, 0.0), np.minimum(best + width, a)
    return float(np.sqrt(((best * u) ** 2).sum()) + t * np.sqrt((((a - best) * v) ** 2).sum()))


@pytest.mark.parametrize("n", [1, 3, 4])
def test_k_functional_bruteforce_outer_sums_equal_point_list(n):
    op = build_dirichlet_laplacian_1d(n, 1.0)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for t in (0.1, 0.5, 2.0):
        assert k_functional_bruteforce(op, x, t, 0.0, 1.0, rounds=8, grid=5) \
            == _bruteforce_point_list(op, x, t, rounds=8, grid=5)


BISECTORIAL_REAL = [1.0, 2.0, 4.0, -1.0, -2.0, -4.0]


@pytest.mark.parametrize("norm", ["pl_square", "k_functional", "real_interpolation"])
def test_negative_spectrum_is_rejected_by_half_line_norms(hom, norm):
    # a real double-sector spectrum: the half-line machinery would see only
    # the positive half, so it must refuse rather than return a number
    op = build_nonnormal_sectorial(BISECTORIAL_REAL, 2.0, 3)
    x = op.random_vector(np.random.default_rng(4))
    x /= lp_norm(x, 2, op.measure)
    evaluate = {"pl_square": lambda: pl_square_norm(op, hom, x, 2),
                "k_functional": lambda: k_functional(op, x, 1.0, 0.0, 1.0),
                "real_interpolation": lambda: real_interpolation_norm(op, x, 0.5, 2)}[norm]
    with pytest.raises(NormsError, match="negative eigenvalues"):
        evaluate()


def test_continuous_square_on_conditioning_one_nonnormal_operator():
    # S is orthogonal at conditioning 1, so int |t lambda e^(-t lambda)|^2 dt/t
    # = 1/4 on every mode gives exactly ||x|| / 2, as on a self-adjoint form
    op = build_nonnormal_sectorial(np.geomspace(0.1, 10.0, 12), 1.0, 5)
    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    x = op.random_vector(np.random.default_rng(6))
    val = continuous_square_norm(op, psi, 0.0, x, 2)
    assert val == pytest.approx(0.5 * lp_norm(x, 2, op.measure), rel=1e-6)
