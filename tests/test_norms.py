"""Block norms, continuous square functions, Besov norms, K-functionals."""

import warnings

import numpy as np
import pytest

from plcalc import norms
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
    build_graph_laplacian,
    build_hermite_operator,
    build_nonnormal_sectorial,
    uniform_grid,
)
from plcalc.partitions import build_equidistant, build_homogeneous_dyadic, to_inhomogeneous
from plcalc.symbols import make_symbol, window_symbol

SQRT_HALF = 2.0**-0.5


def _mode(op, k):
    """Eigenvector k of op, read through the operator: the synthesis of the
    k-th unit coefficient vector."""
    return op.synthesize(np.eye(op.eigenvalues_or_none().size)[k])


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
    x = _mode(op, 0)
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
    x = _mode(op, 0)
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
        op, x = hermite16, _mode(hermite16, int(np.argmax(hit)))
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
    x = _mode(op, k)
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
        x = _mode(hermite16, k)
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


@pytest.mark.parametrize("q", [0.5, 0, -1])
@pytest.mark.parametrize("kind", ["besov_discrete", "besov_continuous", "real_interpolation"])
def test_q_below_one_is_refused_by_every_lq_norm(hom, kind, q):
    # one exponent rule for the l^q and L^q(dt/t) combinations
    op = build_dirichlet_laplacian_1d(32, 1.0)
    x = op.random_vector(np.random.default_rng(1))
    norm = {
        "besov_discrete": lambda: besov_discrete_norm(op, hom, x, 0.3, q, 2),
        "besov_continuous": lambda: besov_continuous_norm(op, x, 0.3, q, window_symbol(hom, 0), 2),
        "real_interpolation": lambda: real_interpolation_norm(op, x, 0.5, q),
    }[kind]
    with pytest.raises(NormsError, match=r"q must be >= 1 or inf"):
        norm()


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
    # the norm hands over the coefficient moduli scaled by 2^-e into [1/2, 1)
    _, e = np.frexp(np.max(_diagonal_data(op, x)[1]))
    for t, k in calls:
        scalar = [k_functional(op, x, tj, -0.5, 1.5) for tj in t]
        np.testing.assert_allclose(np.ldexp(k, e), scalar, rtol=1e-14, atol=0)


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
        k_functional(op, x, -1.0, 0.0, 1.0)
    with pytest.raises(NormsError):
        k_functional(op, x, np.array([1.0, 0.0]), 0.0, 1.0)
    with pytest.raises(NormsError):
        k_functional(op, x, np.ones((2, 2)), 0.0, 1.0)


def test_k_functional_of_zero_and_kernel_vectors():
    # K = 0 for x = 0 and for coefficients that vanish on every nonzero
    # eigenvalue, scalar and array t; a RuntimeWarning fails the suite
    ts = np.logspace(-4, 4, 9)
    graph = build_graph_laplacian([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]])
    for op in (build_dirichlet_laplacian_1d(8, 1.0), graph):
        zero = np.zeros(op.n)
        assert k_functional(op, zero, 0.5, 0.0, 1.0) == 0.0
        assert np.all(k_functional(op, zero, ts, -0.5, 1.5) == 0.0)
        lam, _ = _diagonal_data(op, zero)
        assert np.all(_k_functional_diagonal(lam, np.zeros(lam.size), ts, 0.0, 1.0) == 0.0)
    # the graph's constants span its kernel: K is round-off, not NaN
    assert 0.0 <= k_functional(graph, np.ones(3), 0.5, 0.0, 1.0) <= 1e-15
    assert np.all(k_functional(graph, np.ones(3), ts, 0.0, 1.0) <= 1e-15)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_k_functional_is_homogeneous_at_extreme_scales(scale):
    # K(t, s x) = s K(t, x): no square of a tiny or huge x under- or overflows
    op = build_dirichlet_laplacian_1d(16, 1.0)
    x = op.random_vector(np.random.default_rng(0))
    ts = np.logspace(-3, 3, 13)
    for theta0, theta1 in [(0.0, 1.0), (-0.5, 1.5)]:
        np.testing.assert_allclose(k_functional(op, scale * x, ts, theta0, theta1),
                                   scale * k_functional(op, x, ts, theta0, theta1),
                                   rtol=1e-14, atol=0)


def _k_root_recorder(monkeypatch):
    """Count the path evaluations and keep the output of every root solve."""
    log = {"paths": 0, "solves": []}
    path, solve = norms._split_path, norms._stationary_splits

    def counting(c, rho, sq):
        log["paths"] += 1
        return path(c, rho, sq)

    def recording(t, rho, sq):
        out = solve(t, rho, sq)
        log["solves"].append((t, out))
        return out

    monkeypatch.setattr(norms, "_split_path", counting)
    monkeypatch.setattr(norms, "_stationary_splits", recording)
    return log


def test_k_root_path_evaluations_pinned(monkeypatch):
    # one fixed 40-t curve: one evaluation of the path's two ends, then one
    # per Newton step of its slowest t (vectorised), or of every t (scalar
    # calls); 28 of the 40 t have no root and take the end evaluation only
    op = build_dirichlet_laplacian_1d(64, 1.0)
    x = op.random_vector(np.random.default_rng(3))
    x /= lp_norm(x, 2, op.measure)
    ts = np.logspace(-3, 5, 40)
    log = _k_root_recorder(monkeypatch)
    ks = k_functional(op, x, ts, 0.0, 1.0)
    assert log["paths"] == 6          # 9 by grid and regula falsi, 32 by bisection
    log["paths"] = 0
    scalar = [k_functional(op, x, t, 0.0, 1.0) for t in ts]
    assert log["paths"] == 95         # 114 by grid and regula falsi, 1280 by bisection
    np.testing.assert_allclose(ks, scalar, rtol=1e-14, atol=0)


@pytest.mark.parametrize("theta0, theta1", [(0.0, 1.0), (0.0, 0.5), (-0.5, 1.5)])
def test_k_root_brackets_close_under_the_cap(monkeypatch, theta0, theta1):
    # every t with a sign change ends with a bracket <= K_ROOT_WIDTH in ln c
    # holding its last point, after at most a dozen steps, far below the cap
    ts = np.logspace(-3, 5, 81)
    solved = 0
    for n in (8, 64, 256):
        op = build_dirichlet_laplacian_1d(n, 1.0)
        x = op.random_vector(np.random.default_rng(n))
        x /= lp_norm(x, 2, op.measure)
        for t in ts:
            log = _k_root_recorder(monkeypatch)
            k_functional(op, x, t, theta0, theta1)
            (_, (idx, bracket, c, _)), = log["solves"]
            monkeypatch.undo()
            assert log["paths"] - 1 <= 12 < norms.K_ROOT_ITERS
            assert idx.size or log["paths"] == 1
            width = bracket[1] - bracket[0]
            assert np.all((0 <= width) & (width <= norms.K_ROOT_WIDTH))
            assert np.all((np.exp(bracket[0]) <= c) & (c <= np.exp(bracket[1])))
            solved += idx.size
    assert solved >= 20


def test_k_functional_without_sign_change_is_the_boundary_split(monkeypatch):
    # t = 1e-8: the residual is > 0 on the whole grid (x1 = x wins);
    # t = 1e8: it is <= 0 from the first node (x0 = x wins).  Neither is
    # iterated, and K is the boundary split itself
    op = build_dirichlet_laplacian_1d(64, 1.0)
    x = op.random_vector(np.random.default_rng(9))
    x /= lp_norm(x, 2, op.measure)
    lam, a = _diagonal_data(op, x)
    ts = np.array([1e-8, 1e8])
    log = _k_root_recorder(monkeypatch)
    ks = k_functional(op, x, ts, 0.0, 1.0)
    (_, (idx, _, _, _)), = log["solves"]
    assert idx.size == 0 and log["paths"] == 1
    assert ks[0] == ts[0] * np.sqrt(np.sum((lam * a) ** 2))
    assert ks[1] == np.sqrt(np.sum(a**2))


def _dense_scan_k(lam, a, ts, theta0, theta1, cs=np.logspace(-32, 32, 1025)):
    """The least objective over a log-c scan of the split path and the two
    boundary splits: an upper bound for K at every t."""
    mu2, nu2 = split_path(lam, a, theta0, theta1, cs)
    scan = np.min(np.sqrt(mu2) + ts[:, None] * cs * np.sqrt(nu2), axis=1)
    return np.minimum(scan, np.minimum(np.linalg.norm(lam**theta0 * a),
                                       ts * np.linalg.norm(lam**theta1 * a)))


KCURVE_T = np.logspace(-3, 5, 40)


def _kcurve_faults(op, x, ks, ts=KCURVE_T, tol=1e-9):
    """The K-curve checks at theta = (0, 1): monotone, concave, at most
    min(||x||_0, t ||x||_1), at least the p = 2 lower bound
    (sum_k a_k^2 (t lam_k)^2 / (1 + (t lam_k)^2))^(1/2); the names of the
    failed ones."""
    lam, a = _diagonal_data(op, x)
    n0, n1 = np.sqrt(np.sum(a**2)), np.sqrt(np.sum((lam * a) ** 2))
    tl2 = (ts[:, None] * lam) ** 2
    low = np.sqrt(np.sum(a**2 * tl2 / (1 + tl2), axis=1))
    checks = {"monotone": np.all(np.diff(ks) >= -tol * ks[:-1]),
              "concave": np.all(np.diff(np.diff(ks) / np.diff(ts)) <= tol * np.max(ks)),
              "envelope": np.all(ks <= np.minimum(n0, ts * n1) * (1 + tol)),
              "lower bound": np.all(ks >= low * (1 - tol))}
    return [name for name, ok in checks.items() if not ok]


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_k_curves_of_random_unit_vectors_pass_the_curve_checks(n):
    op = build_dirichlet_laplacian_1d(n, 1.0)
    rng = np.random.default_rng(n)
    for _ in range(600):
        x = op.random_vector(rng)
        x /= lp_norm(x, 2, op.measure)
        assert not _kcurve_faults(op, x, k_functional(op, x, KCURVE_T, 0.0, 1.0))


@pytest.mark.parametrize("n, seed, j", [(64, 1997, 21), (256, 0, 25)])
def test_k_root_regressions_of_unguarded_newton(monkeypatch, n, seed, j):
    # (64, 1997), t ~ 20.3: a plain Newton step without the half-step guard
    # 2-cycles between ln c ~ -14.13 and -6.05.  (256, 0), t ~ 134: plain
    # Newton reaches ln c ~ -18.0445, where phi is exactly 0, so its zero
    # step lands on the point's own bracket end; with the stop tests after
    # the guard, that step is refused and the bracket bisected into the cap.
    # Both close in a few evaluations, on a curve that passes the checks
    op = build_dirichlet_laplacian_1d(n, 1.0)
    x = op.random_vector(np.random.default_rng(seed))
    x /= lp_norm(x, 2, op.measure)
    lam, a = _diagonal_data(op, x)
    log = _k_root_recorder(monkeypatch)
    k = k_functional(op, x, KCURVE_T[j], 0.0, 1.0)
    (_, (idx, _, _, _)), = log["solves"]
    assert idx.size == 1 and log["paths"] - 1 <= 6
    assert k <= _dense_scan_k(lam, a, KCURVE_T[j:j + 1], 0.0, 1.0)[0] * (1 + 1e-12)
    monkeypatch.undo()
    assert not _kcurve_faults(op, x, k_functional(op, x, KCURVE_T, 0.0, 1.0))


def test_k_root_solver_on_random_spectra():
    # spectra e^U(-14, 6), up to 300 of them, a fifth of the coefficients
    # zero: no root reaches the evaluation cap, and K never exceeds a dense
    # scan of the split path
    rng = np.random.default_rng(11)
    thetas = [(0.0, 1.0), (0.0, 0.5), (-0.5, 1.5), (0.3, 1.7), (0.0, 2.0)]
    for _ in range(30):
        n = int(rng.integers(1, 301))
        lam = np.exp(rng.uniform(-14.0, 6.0, n))
        a = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) >= 0.2)
        for theta0, theta1 in thetas:
            n0 = np.linalg.norm(lam**theta0 * a)
            n1 = np.linalg.norm(lam**theta1 * a)
            ts = (n0 / n1 if n0 > 0 else 1.0) * np.logspace(-6, 6, 60)
            ks = _k_functional_diagonal(lam, a, ts, theta0, theta1)
            assert np.all(ks <= _dense_scan_k(lam, a, ts, theta0, theta1) * (1 + 1e-12))


def test_k_root_cap_raises(monkeypatch):
    # a root not closed in K_ROOT_ITERS path evaluations raises instead of
    # returning an unconverged split; t without a root never iterate
    op = build_dirichlet_laplacian_1d(64, 1.0)
    x = op.random_vector(np.random.default_rng(3))
    x /= lp_norm(x, 2, op.measure)
    monkeypatch.setattr(norms, "K_ROOT_ITERS", 2)
    with pytest.raises(NormsError, match="not closed in 2 path evaluations"):
        k_functional(op, x, 1.0, 0.0, 1.0)
    with pytest.raises(NormsError):
        real_interpolation_norm(op, x, 0.5, 2)
    assert k_functional(op, x, 1e-8, 0.0, 1.0) > 0


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


def test_real_interpolation_is_homogeneous_far_from_unit_scale():
    # the envelope norms and the t-range are sized on coefficients scaled
    # by a power of two, so tiny and huge vectors neither divide by zero,
    # underflow to 0 nor overflow into an empty t-range
    op = build_dirichlet_laplacian_1d(16, 1.0)
    x = op.random_vector(np.random.default_rng(0))
    x /= lp_norm(x, 2, op.measure)
    unit = real_interpolation_norm(op, x, 0.5, 2)
    for scale in (1e-160, 1e-170, 1e300):
        assert real_interpolation_norm(op, scale * x, 0.5, 2) \
            == pytest.approx(scale * unit, rel=1e-14, abs=0)


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
    equi = build_equidistant()
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = op.random_vector(rng)
        x /= lp_norm(x, 2, op.measure)
        r = pl_square_norm(op, equi, x, 2)
        assert SQRT_HALF - 1e-9 <= r <= 1.0 + 1e-9
    # the windows sit on the strip spectrum Re mu of B = log A, active
    # over its range
    mu = np.real(np.log(op.eigenvalues_or_none()))
    indices, windows = norms.block_stack(op, equi)
    assert list(indices) == list(equi.indices(float(np.min(mu)), float(np.max(mu))))
    np.testing.assert_array_equal(windows, [equi.window(n, mu) for n in indices])
    # an operator with a kernel has no logarithm
    graph = build_graph_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NormsError, match="injective"):
        pl_square_norm(graph, equi, graph.random_vector(rng), 2)


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
    part1 = pl_square_norm(op, even, p1 @ x, 2)
    part2 = pl_square_norm(op, even, p2 @ x, 2)
    assert whole**2 == pytest.approx(part1**2 + part2**2, rel=1e-10)
    # non-normal case: two-sided bracket with the projection norms
    opk = build_nonnormal_sectorial(lams, 5.0, seed=3)
    q1, q2 = bisectorial_projections(opk)
    xk = opk.random_vector(rng)
    xk /= lp_norm(xk, 2, opk.measure)
    whole = pl_square_norm(opk, even, xk, 2)
    split = pl_square_norm(opk, even, q1 @ xk, 2) + pl_square_norm(opk, even, q2 @ xk, 2)
    cmax = max(np.linalg.norm(q1, 2), np.linalg.norm(q2, 2))
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


def test_even_windows_on_a_half_line_spectrum_are_the_homogeneous_windows(hom):
    # the path graph has a kernel and a spectrum in [0, inf), where
    # |lambda| = lambda: the even windows read the same floats as the
    # homogeneous ones, over the same active range (min |lambda| over the
    # nonzero spectrum, not the kernel's 0)
    from plcalc.partitions import even_extension

    op = build_graph_laplacian(np.eye(4) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1))
    even = even_extension(hom)
    assert norms.block_indices(op, even) == norms.block_indices(op, hom)
    np.testing.assert_array_equal(norms.block_stack(op, even, 0.3)[1],
                                  norms.block_stack(op, hom, 0.3)[1])
    x = _unit_vector(op, 9)
    for pnorm in (2, 4):
        assert pl_square_norm(op, even, x, pnorm) == pl_square_norm(op, hom, x, pnorm)
        assert besov_discrete_norm(op, even, x, 0.3, 2, pnorm) \
            == besov_discrete_norm(op, hom, x, 0.3, 2, pnorm)


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


# -- the Parseval route: p = 2 norms from the coefficient energies -----------------

def _parseval_operators():
    """Orthonormal forms: Dirichlet, a graph Laplacian (weighted measure with
    a kernel), Hermite (a rectangular n x K basis) and Schroedinger."""
    from plcalc.operators import build_schrodinger_1d

    sigma = np.ones((6, 6)) + np.diag(np.arange(6.0))
    sigma[0, 5] = sigma[5, 0] = 0.0
    half = np.sqrt(2 * 25.0) + 5.0
    return {
        "dirichlet": build_dirichlet_laplacian_1d(40, 0.5),
        "graph": build_graph_laplacian(sigma),
        "hermite": build_hermite_operator(1, 12, uniform_grid(-half, half, 500)),
        "schrodinger": build_schrodinger_1d(30, 1.0, 0.02 * np.arange(30.0) ** 2 / 30),
    }


PARSEVAL_OPERATORS = _parseval_operators()

# every p = 2 norm kind an experiment evaluates; the strip (equidistant)
# windows need an injective operator and the kernel split needs a kernel
NORM_KINDS = [
    {"kind": "pl_square"}, {"kind": "pl_square", "theta": 0.4},
    {"kind": "pl_random", "count": 32}, {"kind": "pl_random", "count": 32, "theta": 0.3},
    {"kind": "pl_inhomogeneous", "theta": 0.5},
    {"kind": "besov_discrete", "theta": 0.3, "q": 2},
    {"kind": "besov_discrete", "theta": -0.2, "q": "inf"},
    {"kind": "besov_continuous", "theta": 0.3, "q": 3},
    {"kind": "continuous_square", "theta": 0.0}, {"kind": "continuous_square", "theta": 0.3},
    {"kind": "fractional_power", "theta": 0.5},
    {"kind": "strip_pl_square"}, {"kind": "kernel_plus_pl"},
]


def _admitted(op, spec):
    if spec["kind"] == "kernel_plus_pl":
        return not op.injective
    return spec["kind"] != "strip_pl_square" or op.injective


def _unit_vector(op, seed):
    x = op.random_vector(np.random.default_rng(seed))
    return x / lp_norm(x, 2, op.measure)


@pytest.mark.parametrize("name", sorted(PARSEVAL_OPERATORS))
def test_energies_are_the_squared_norms_of_the_synthesized_fields(name):
    # the p = 2 field norms read off the coefficient energies, squared,
    # against the squared norms of the synthesized fields
    from plcalc.calculus import spectral_multiplier

    op = PARSEVAL_OPERATORS[name]
    rng = np.random.default_rng(1)
    k = op.eigenvalues_or_none().size
    values = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
    x = _unit_vector(op, 2)
    fields = spectral_multiplier(op, values, x)
    np.testing.assert_allclose(norms._field_evaluator(op, values, 2)(x) ** 2,
                               lp_norm(fields, 2, op.measure) ** 2, rtol=1e-13, atol=0)
    assert norms._field_evaluator(op, values[0], 2)(x) ** 2 == pytest.approx(
        lp_norm(fields[0], 2, op.measure) ** 2, rel=1e-13, abs=0)


def test_energies_of_a_nonnormal_operator_synthesize_the_fields():
    # off an orthonormal basis the p = 2 field norms are lp_norm of the
    # synthesized fields, bit for bit
    from plcalc.calculus import spectral_multiplier

    op = build_nonnormal_sectorial(np.geomspace(0.1, 10.0, 9), 8.0, 2)
    values = np.random.default_rng(3).standard_normal((4, 9))
    x = _unit_vector(op, 4)
    fields = spectral_multiplier(op, values, x)
    assert not op.orthonormal
    np.testing.assert_array_equal(norms._field_evaluator(op, values, 2)(x),
                                  lp_norm(fields, 2, op.measure))


@pytest.mark.parametrize("name", sorted(PARSEVAL_OPERATORS))
def test_parseval_route_matches_the_synthesis_route(monkeypatch, name):
    # with the orthonormal flag off, every norm synthesizes its fields and
    # takes their lp_norm; the energies give the same values to round-off
    from plcalc.norms import evaluator_from_spec
    from plcalc.operators import ModelOperator

    op = PARSEVAL_OPERATORS[name]
    xs = [_unit_vector(op, seed) for seed in range(3)]
    checked = 0
    for spec in NORM_KINDS:
        if not _admitted(op, spec):
            continue
        parseval, _ = evaluator_from_spec(op, dict(spec, pnorm=2), 7)
        with monkeypatch.context() as m:
            m.setattr(ModelOperator, "orthonormal", property(lambda self: False))
            synthesis, _ = evaluator_from_spec(op, dict(spec, pnorm=2), 7)
            expected = [synthesis(x) for x in xs]
        np.testing.assert_allclose([parseval(x) for x in xs], expected, rtol=1e-13, atol=0,
                                   err_msg=str(spec))
        checked += 1
    assert checked == len(NORM_KINDS) - 1


def _synthesis_refused(monkeypatch):
    from plcalc.operators import ModelOperator

    def refuse(self, coeffs):
        raise AssertionError("synthesize called")

    monkeypatch.setattr(ModelOperator, "synthesize", refuse)


@pytest.mark.parametrize("spec", NORM_KINDS, ids=lambda s: "-".join(map(str, s.values())))
def test_p2_norms_on_an_orthonormal_basis_make_no_synthesis(monkeypatch, spec):
    from plcalc.norms import evaluator_from_spec

    op = PARSEVAL_OPERATORS["graph" if spec["kind"] == "kernel_plus_pl" else "dirichlet"]
    x = _unit_vector(op, 5)
    evaluate, _ = evaluator_from_spec(op, dict(spec, pnorm=2), 0)
    p4, _ = evaluator_from_spec(op, dict(spec, pnorm=4), 0)
    with monkeypatch.context() as m:
        _synthesis_refused(m)
        assert np.isfinite(evaluate(x))
        with pytest.raises(AssertionError, match="synthesize called"):
            p4(x)


@pytest.mark.parametrize("spec", [s for s in NORM_KINDS if s["kind"] != "kernel_plus_pl"],
                         ids=lambda s: "-".join(map(str, s.values())))
def test_p2_norms_on_a_nonnormal_operator_still_synthesize(monkeypatch, spec):
    from plcalc.norms import evaluator_from_spec

    op = build_nonnormal_sectorial(np.geomspace(0.1, 10.0, 12), 4.0, 1)
    x = _unit_vector(op, 6)
    evaluate, _ = evaluator_from_spec(op, dict(spec, pnorm=2), 0)
    with monkeypatch.context() as m:
        _synthesis_refused(m)
        with pytest.raises(AssertionError, match="synthesize called"):
            evaluate(x)


def test_p2_square_functions_on_a_nonnormal_operator_keep_the_synthesis_arithmetic(hom):
    # off an orthonormal basis the fields are synthesized and reduced by
    # the synthesis formula, bit for bit
    from plcalc.calculus import spectral_multiplier

    op = build_nonnormal_sectorial(np.geomspace(0.1, 10.0, 12), 4.0, 1)
    x = _unit_vector(op, 8)
    windows = norms.block_stack(op, hom, 0.3)[1]
    fields = spectral_multiplier(op, windows, x)
    assert pl_square_norm(op, hom, x, 2, 0.3) \
        == lp_norm(np.sqrt(np.sum(np.abs(fields) ** 2, axis=0)), 2, op.measure)
    ens = RandomEnsemble(seed=4, count=16)
    np.testing.assert_array_equal(pl_random_norm(op, hom, x, 2, ens, 0.3).samples,
                                  lp_norm(ens.draws(len(windows)) @ fields, 2, op.measure))


# -- the x-independent half: two-window stacks and Parseval weights --------------

def _diagonal_operator(eigs):
    """Coordinate eigenvectors, unit weights, the given (real) spectrum."""
    from plcalc.measure import MeasureSpace
    from plcalc.operators import ModelOperator, SpectralSelfAdjoint

    lam = np.asarray(eigs, dtype=float)
    return ModelOperator(form=SpectralSelfAdjoint(lam, np.eye(lam.size, dtype=complex)),
                         measure=MeasureSpace.uniform(lam.size))


def _stack_spectra():
    """Spectra for the stack oracle: exact powers of two with points between
    them, kernel zeros, a double-sector spectrum, and the same spectrum
    scaled by 2^400 and 2^-400."""
    powers = np.concatenate([2.0 ** np.arange(-6.0, 7.0), 1.37 ** np.arange(-15.0, 16.0)])
    return {
        "powers": powers,
        "kernel": np.concatenate([[0.0, 0.0], powers]),
        "double-sector": np.concatenate([-powers, powers]),
        "up-2^400": powers * 2.0**400,
        "down-2^400": powers * 2.0**-400,
    }


STACK_SPECTRA = _stack_spectra()


def _window_stack(op, p, theta=0.0):
    """The stack of the active windows, each from the defining formula
    PartitionOfUnity.window, weighted by 2^(n theta)."""
    points, indices = norms._window_grid(op, p)
    weights = norms._block_weights(np.array(indices), theta)
    return np.array([p.window(n, points) for n in indices]) * weights[:, None]


@pytest.mark.parametrize("spectrum", sorted(STACK_SPECTRA))
def test_block_stack_is_the_per_window_stack(hom, spectrum):
    from plcalc.partitions import even_extension

    op = _diagonal_operator(STACK_SPECTRA[spectrum])
    inh = to_inhomogeneous(hom)
    kinds = [even_extension(hom), even_extension(inh)]
    if not op.bisectorial:
        kinds += [hom, inh]
    for p in kinds:
        for theta in (0.0, 0.3):
            np.testing.assert_array_equal(norms.block_stack(op, p, theta)[1],
                                          _window_stack(op, p, theta), err_msg=p.kind)
    if op.injective and not op.bisectorial:
        equi = build_equidistant()
        np.testing.assert_allclose(norms.block_stack(op, equi)[1], _window_stack(op, equi),
                                   rtol=0, atol=np.finfo(float).eps)


@pytest.mark.parametrize("n", [1024, 256])
def test_block_stack_of_operators_is_the_per_window_stack(hom, hermite16, n):
    from plcalc.partitions import even_extension

    for op in (build_dirichlet_laplacian_1d(n, 1.0), hermite16, PARSEVAL_OPERATORS["graph"]):
        for p in (hom, to_inhomogeneous(hom), even_extension(hom)):
            np.testing.assert_array_equal(norms.block_stack(op, p)[1], _window_stack(op, p))
        if op.injective:
            equi = build_equidistant()
            np.testing.assert_allclose(norms.block_stack(op, equi)[1], _window_stack(op, equi),
                                       rtol=0, atol=np.finfo(float).eps)


def test_block_stack_calls_the_bump_once(monkeypatch, hom):
    from plcalc.partitions import SmoothBump, even_extension

    calls = []
    original = SmoothBump.__call__
    monkeypatch.setattr(SmoothBump, "__call__",
                        lambda self, t: calls.append(1) or original(self, t))
    for n in (2, 64, 1024):
        op = build_dirichlet_laplacian_1d(n, 1.0)
        for p in (hom, to_inhomogeneous(hom), even_extension(hom), build_equidistant()):
            calls.clear()
            width = len(norms.block_stack(op, p)[0])
            assert len(calls) == 1, (n, p.kind, width)


def _oracle_operators(hermite16):
    return {
        "dirichlet": build_dirichlet_laplacian_1d(40, 0.5),
        "hermite": hermite16,
        "graph": PARSEVAL_OPERATORS["graph"],
        "nonnormal": build_nonnormal_sectorial(np.geomspace(0.1, 10.0, 12), 4.0, 1),
    }


def _stack_energies(op, values, x):
    """||f_j(A)x||_2^2 of every row f_j of values, by Parseval from the
    whole stack and the coefficients of x (an orthonormal basis)."""
    return np.square(np.abs(values)) @ np.square(np.abs(op.coefficients(x)))


def _field_norms(op, values, x, pnorm):
    """||f_j(A)x||_p of every row f_j of the stack values, from the stack
    itself: its energies at p = 2 on an orthonormal basis, the synthesized
    fields otherwise."""
    from plcalc.calculus import spectral_multiplier

    if pnorm == 2 and op.orthonormal:
        return np.sqrt(_stack_energies(op, values, x))
    return lp_norm(spectral_multiplier(op, values, x), pnorm, op.measure)


def _square_function_norm(op, values, x, pnorm):
    """|| (sum_j |f_j(A)x|^2)^(1/2) ||_p over the rows f_j of values, from the
    stack itself, as _field_norms."""
    from plcalc.calculus import spectral_multiplier

    if pnorm == 2 and op.orthonormal:
        return float(np.sqrt(np.sum(_stack_energies(op, values, x))))
    fields = spectral_multiplier(op, values, x)
    return lp_norm(np.sqrt(np.sum(np.abs(fields) ** 2, axis=0)), pnorm, op.measure)


@pytest.mark.parametrize("pnorm", [2, 4])
@pytest.mark.parametrize("name", ["dirichlet", "hermite", "graph", "nonnormal"])
def test_evaluators_match_the_full_stack_route(hom, hermite16, name, pnorm):
    # every evaluator against _square_function_norm / _field_norms of the
    # stack built per window (or the dilation table): at p = 2 on an
    # orthonormal basis the evaluator reads weights squared once, elsewhere
    # it synthesizes as the reference does
    from plcalc.calculus import spectral_multiplier

    op = _oracle_operators(hermite16)[name]
    inh = to_inhomogeneous(hom)
    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    f = make_symbol("res_frac", a=1.0, b=2.0)
    ens = RandomEnsemble(seed=3, count=24)
    quad = QuadratureSpec.cover(op, margin=2.0**24)
    t, du = quad.nodes()
    table = norms._dilation_table(op, psi, t)
    square_values = du[:, None] ** 0.5 * t[:, None] ** -0.3 * table
    cover_t, cover_du = QuadratureSpec.cover(op).nodes()
    f_table = norms._dilation_table(op, f, cover_t)
    windows = _window_stack(op, hom, 0.4)
    draws = ens.draws(len(windows))

    def random_reference(x):
        if pnorm == 2 and op.orthonormal:
            return _field_norms(op, draws @ windows, x, pnorm)
        return lp_norm(draws @ spectral_multiplier(op, windows, x), pnorm, op.measure)

    cases = {
        "pl_square": (norms.pl_square_evaluator(op, hom, pnorm, 0.4),
                      lambda x: _square_function_norm(op, windows, x, pnorm)),
        "pl_inhomogeneous": (
            norms.pl_inhomogeneous_evaluator(op, inh, pnorm, 0.5),
            lambda x: _square_function_norm(op, _window_stack(op, inh, 0.5), x, pnorm)),
        "pl_random": (lambda x: norms.pl_random_evaluator(op, hom, pnorm, ens, 0.4)(x).samples,
                      random_reference),
        "besov_discrete": (
            norms.besov_discrete_evaluator(op, hom, 0.3, 3, pnorm),
            lambda x: np.sum((2.0 ** (0.3 * np.array(norms.block_indices(op, hom)))
                              * _field_norms(op, _window_stack(op, hom), x, pnorm)) ** 3)
            ** (1 / 3)),
        "besov_continuous": (
            norms.besov_continuous_evaluator(op, 0.5, 2, f, pnorm),
            lambda x: np.sum(cover_du * (cover_t**-0.5
                                         * _field_norms(op, f_table, x, pnorm)) ** 2) ** 0.5),
        "continuous_square": (
            norms.continuous_square_evaluator(op, psi, 0.3, pnorm, quad),
            lambda x: _square_function_norm(op, square_values, x, pnorm)),
    }
    for seed in range(3):
        x = _unit_vector(op, seed)
        for kind, (evaluate, reference) in cases.items():
            np.testing.assert_allclose(evaluate(x), reference(x), rtol=1e-14, atol=0,
                                       err_msg=kind)


def test_continuous_square_integrals_do_not_depend_on_the_blocking(monkeypatch):
    # the per-eigenvalue integrals, reduced over node blocks, equal the
    # column sums of the whole table to round-off, for any block size, for
    # the continuous square's integrand |psi|^2, the reproduction check's
    # normalized g and the continuous Besov norm's window; kernel entries
    # are 0.  The table, filled per node block, is the table of one call
    # of the symbol on the whole (node, eigenvalue) grid bit for bit, and
    # no call of the symbol sees more than a block.
    from plcalc.experiments import make_mcintosh_symbol

    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    integrands = {"|psi|^2": lambda s: np.square(np.abs(psi(s))),
                  "mcintosh g": make_mcintosh_symbol(psi),
                  "window 0": window_symbol(build_homogeneous_dyadic(), 0)}
    for op in (build_dirichlet_laplacian_1d(64, 1.0), PARSEVAL_OPERATORS["graph"]):
        t, du = QuadratureSpec.cover(op, margin=2.0**16).nodes()
        w = du * t**-0.6
        lam = np.real(op.eigenvalues_or_none())[op.nonzero]
        for name, f in integrands.items():
            table = np.zeros((t.size, op.n))
            table[:, op.nonzero] = f(np.outer(t, lam))
            whole = (w[:, None] * table).sum(axis=0)
            for block in (1, 64, 1000, 10**7):
                monkeypatch.setattr(norms, "BLOCK_POINTS", block)
                sizes = []
                blocked = norms._dilation_table(op, lambda s: sizes.append(s.size) or f(s), t)
                assert max(sizes) <= max(block, lam.size)   # one node row at least
                assert blocked.dtype == float
                np.testing.assert_array_equal(blocked, table, err_msg=name)
                integrals = norms._dilation_integrals(op, f, t, w)
                np.testing.assert_allclose(integrals, whole, rtol=1e-14, atol=0, err_msg=name)
                assert not np.any(integrals[~op.nonzero])
