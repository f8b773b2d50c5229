"""Spectral and contour routes of the functional calculus."""

import numpy as np
import pytest

from plcalc.calculus import (
    CalculusError,
    ContourSpec,
    apply_contour,
    apply_spectral,
    bisectorial_projections,
    default_contour_spec,
    derivative_check,
    even_multiplier_direct,
    even_multiplier_via_projections,
    fractional_power_apply,
    imaginary_power_apply,
    log_operator,
    semigroup_apply,
    spectral_multiplier,
)
from plcalc.operators import (
    ModelOperator,
    MeasureSpace,
    SpectralSelfAdjoint,
    build_dirichlet_laplacian_1d,
    build_graph_laplacian,
    build_nonnormal_sectorial,
    build_schrodinger_1d,
)
from plcalc.partitions import build_equidistant, build_homogeneous_dyadic, tilde
from plcalc.symbols import Symbol, make_symbol, window_symbol


def diagonal_operator(eigs):
    """Spectral operator with coordinate eigenvectors and unit weights."""
    lam = np.asarray(eigs, dtype=float)
    n = lam.size
    return ModelOperator(
        form=SpectralSelfAdjoint(lam, np.eye(n, dtype=complex)),
        measure=MeasureSpace.uniform(n),
        sector_angle_hint=0.0,
        injective=bool(np.all(lam > 0)),
    )


@pytest.fixture(scope="module")
def hom():
    return build_homogeneous_dyadic()


def test_apply_spectral_identity_and_multiplication_by_t():
    op = build_dirichlet_laplacian_1d(16, 1.0)
    rng = np.random.default_rng(0)
    x = op.random_vector(rng)
    one = Symbol(evaluate=lambda t: np.ones_like(t))
    assert np.allclose(apply_spectral(op, one, x), x, atol=1e-12)
    ident = Symbol(evaluate=lambda t: t)
    assert np.linalg.norm(apply_spectral(op, ident, x) - op.apply(x)) \
        <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("form", ["spectral", "similarity"])
def test_spectral_multiplier_stack_matches_single_calls(form):
    if form == "spectral":
        op = build_dirichlet_laplacian_1d(24, 0.5)
    else:
        op = build_nonnormal_sectorial(np.geomspace(0.1, 4.0, 20) * np.exp(0.2j), 8.0, 2)
    rng = np.random.default_rng(11)
    x = op.random_vector(rng)
    k = op.eigenvalues_or_none().size
    stack = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
    rows = spectral_multiplier(op, stack, x)
    assert rows.shape == (5, op.n)
    for i in range(5):
        single = spectral_multiplier(op, stack[i], x)
        assert single.shape == (op.n,)
        assert np.linalg.norm(rows[i] - single) <= 1e-13 * np.linalg.norm(single)


def test_apply_spectral_widened_window_identity(hom):
    # tilde(0) * window(0) = window(0) through the calculus
    op = build_dirichlet_laplacian_1d(32, 1.0)
    rng = np.random.default_rng(1)
    x = op.random_vector(rng)
    w0 = window_symbol(hom, 0)
    wide = Symbol(evaluate=tilde(hom, 0))
    y1 = apply_spectral(op, w0, x)
    y2 = apply_spectral(op, wide, y1)
    assert np.linalg.norm(y2 - y1) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("seed", range(3))
def test_apply_spectral_multiplicative(seed):
    op = build_schrodinger_1d(20, 1.0, np.linspace(0, 1, 20))
    rng = np.random.default_rng(seed)
    x = op.random_vector(rng)
    f = make_symbol("rho")
    g = make_symbol("psi_exp", a=1.0, b=1.0)
    fg = Symbol(evaluate=lambda t: f(t) * g(t))
    y1 = apply_spectral(op, fg, x)
    y2 = apply_spectral(op, f, apply_spectral(op, g, x))
    assert np.linalg.norm(y1 - y2) <= 1e-10 * np.linalg.norm(x)


def test_partial_sums_converge_once_spectrum_covered(hom):
    op = build_dirichlet_laplacian_1d(48, 1.0)
    rng = np.random.default_rng(2)
    x = op.random_vector(rng)
    lam = np.real(op.eigenvalues_or_none())
    n0, n1 = hom.active_range(op.lambda_min_positive, op.lambda_max)
    acc = np.zeros_like(x)
    for n in range(n0, n1 + 1):
        acc += apply_spectral(op, window_symbol(hom, n), x)
    assert np.linalg.norm(x - acc) <= 1e-10 * np.linalg.norm(x)


def test_contour_rho_on_diagonal_operator():
    op = diagonal_operator([1.0, 2.0, 4.0])
    x = np.ones(3, dtype=complex)
    rho = make_symbol("rho")
    y, tail = apply_contour(op, rho, x, default_contour_spec(op, rho, 1e-9))
    want = np.array([1.0 / 4.0, 2.0 / 9.0, 4.0 / 25.0])
    assert np.max(np.abs(y - want)) < 1e-8
    assert tail <= 1e-9


def test_contour_scalar_rho():
    op = diagonal_operator([1.0])
    rho = make_symbol("rho")
    y, _ = apply_contour(op, rho, np.array([1.0 + 0j]))
    assert y[0] == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("seed", range(2))
def test_contour_vs_spectral_dual_path(seed):
    rng = np.random.default_rng(seed)
    op = build_schrodinger_1d(32, 1.0, rng.uniform(0, 2, 32))
    x = op.random_vector(rng)
    psi = make_symbol("psi_exp", a=2.0, b=1.0)
    y, _ = apply_contour(op, psi, x)
    z = apply_spectral(op, psi, x)
    assert np.linalg.norm(y - z) <= 1e-8 * np.linalg.norm(z)


def test_contour_requires_certificate_and_valid_angle():
    op = diagonal_operator([1.0, 2.0])
    x = np.ones(2, dtype=complex)
    bare = Symbol(evaluate=lambda t: np.exp(-t), sector_evaluate=lambda z: np.exp(-z))
    with pytest.raises(CalculusError):
        apply_contour(op, bare, x)
    rho = make_symbol("rho")
    with pytest.raises(CalculusError):
        ContourSpec(sigma=0.0, r_min=1e-3, r_max=1e3)
    with pytest.raises(CalculusError):
        apply_contour(op, rho, x, ContourSpec(sigma=0.3, r_min=0.9, r_max=1e3))
    # tail above tolerance: absurdly narrow range
    with pytest.raises(CalculusError):
        apply_contour(op, rho, x, ContourSpec(sigma=0.3, r_min=0.4, r_max=5.0),
                      tail_tol=1e-12)


def test_fractional_powers():
    op = build_dirichlet_laplacian_1d(24, 1.0)
    rng = np.random.default_rng(3)
    x = op.random_vector(rng)
    assert np.allclose(fractional_power_apply(op, 0.0, x), x)
    assert np.linalg.norm(fractional_power_apply(op, 1.0, x) - op.apply(x)) \
        <= 1e-10 * np.linalg.norm(x)
    half = fractional_power_apply(op, 0.5, x)
    assert np.linalg.norm(fractional_power_apply(op, 0.5, half) - op.apply(x)) \
        <= 1e-9 * np.linalg.norm(op.apply(x))


def test_fractional_power_noninjective_guard():
    op, _ = build_graph_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    x = np.array([1.0, -1.0], dtype=complex)
    # default auto-projection works even for negative powers
    y = fractional_power_apply(op, -0.5, x)
    assert np.all(np.isfinite(y))
    with pytest.raises(CalculusError):
        fractional_power_apply(op, -0.5, x, project_kernel=False)


def test_semigroup():
    op = diagonal_operator([0.5, 1.0, 3.0])
    x = np.array([1.0, 2.0, -1.0], dtype=complex)
    assert np.allclose(semigroup_apply(op, 0.0, x), x)
    y = semigroup_apply(op, 0.7, x)
    assert np.allclose(y, np.exp(-0.7 * np.array([0.5, 1.0, 3.0])) * x, atol=1e-14)
    a = semigroup_apply(op, 0.3, semigroup_apply(op, 0.4, x))
    assert np.linalg.norm(a - y) <= 1e-10


def test_semigroup_rejects_negative_time():
    op = diagonal_operator([1.0])
    with pytest.raises(CalculusError):
        semigroup_apply(op, -0.1, np.array([1.0 + 0j]))


def test_derivative_check_exp():
    op = build_dirichlet_laplacian_1d(16, 1.0)
    rng = np.random.default_rng(4)
    x = op.random_vector(rng)
    x /= np.linalg.norm(x)
    g = make_symbol("exp")
    assert derivative_check(op, g, 0.5, x, h=1e-4) <= 1e-6
    const = Symbol(evaluate=lambda t: np.ones_like(t),
                   derivative_fn=lambda k, t: np.zeros_like(t, dtype=complex))
    assert derivative_check(op, const, 0.5, x) <= 1e-12
    ident = Symbol(evaluate=lambda t: t,
                   derivative_fn=lambda k, t: np.ones_like(t, dtype=complex)
                   if k == 1 else np.zeros_like(t, dtype=complex))
    assert derivative_check(op, ident, 0.5, x) <= 1e-9


def test_log_operator_and_group():
    op = diagonal_operator([1.0, np.e, np.e**2])
    strip = log_operator(op)
    assert np.allclose(np.real(strip.mu), [0.0, 1.0, 2.0], atol=1e-14)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    # f(B) x = (f o log)(A) x for an equidistant window
    equi = build_equidistant()
    f = lambda s: equi.window(0, s)
    ya = strip.apply_symbol(f, x)
    yb = apply_spectral(op, Symbol(evaluate=lambda t: f(np.log(t))), x)
    assert np.linalg.norm(ya - yb) <= 1e-10 * np.linalg.norm(x)
    # A^{is} x = e^{i s B} x
    s = 0.7
    za = imaginary_power_apply(op, s, x)
    zb = strip.apply_function(np.exp(1j * s * strip.mu), x)
    assert np.linalg.norm(za - zb) <= 1e-10 * np.linalg.norm(x)


def test_log_operator_requires_injective():
    op, _ = build_graph_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(CalculusError):
        log_operator(op)


def test_bisectorial_projections_normal_case():
    op = build_nonnormal_sectorial([1.0, -1.0], 1.0, seed=6)
    p1, p2 = bisectorial_projections(op)
    # normal case: orthogonal projections
    for p in (p1.p, p2.p):
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12
    assert np.linalg.norm(p1.p + p2.p - np.eye(2)) < 1e-12
    assert np.linalg.norm(p1.p @ p2.p) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_bisectorial_resolution_and_even_dual_path(seed, hom):
    lams = [1.0, 2.5, -1.5, -4.0, 0.5, -0.5]
    op = build_nonnormal_sectorial(lams, 8.0, seed)
    p1, p2 = bisectorial_projections(op)
    assert np.linalg.norm(p1.p + p2.p - np.eye(op.n)) < 1e-10
    assert np.linalg.norm(p1.p @ p2.p) < 1e-10
    rng = np.random.default_rng(seed)
    x = op.random_vector(rng)
    x /= np.linalg.norm(x)
    f = lambda s: hom.window(0, s)
    ya = even_multiplier_direct(op, f, x)
    yb = even_multiplier_via_projections(op, f, x)
    assert np.linalg.norm(ya - yb) <= 1e-10


def test_bisectorial_rejects_imaginary_axis():
    op = build_nonnormal_sectorial([1.0, 2.0], 1.0, seed=7)
    # fake an eigenvalue on the axis by rebuilding by hand
    op.form.eigenvalues = np.array([1e-20 + 1j * 0.0, 2.0 + 0j])
    op.form.eigenvalues = np.array([1j * 1.0, 2.0 + 0j])
    with pytest.raises(CalculusError):
        bisectorial_projections(op)


def test_contour_spec_from_json():
    spec = ContourSpec.from_json({"sigma": 0.4, "rmin": 1e-4, "rmax": 1e4,
                                  "nodes_per_decade": 32})
    assert spec.sigma == 0.4
    r, du = spec.nodes()
    assert r[0] == pytest.approx(1e-4) and r[-1] == pytest.approx(1e4)
    assert du[0] == pytest.approx(du[1] / 2)


def _sample_symbol(hom):
    from plcalc.experiments import sample_dyadic_symbol

    return sample_dyadic_symbol(hom, np.array([1.0, 0.5j, -0.25]), -1)


def _mcintosh_symbol(hom):
    from plcalc.experiments import make_mcintosh_symbol

    return make_mcintosh_symbol(make_symbol("psi_exp", a=1.0, b=1.0))


@pytest.mark.parametrize("make", [lambda hom: window_symbol(hom, 0), _mcintosh_symbol,
                                  _sample_symbol], ids=["window", "mcintosh", "dyadic-sample"])
def test_apply_spectral_refuses_complex_spectrum_without_sector_evaluation(hom, make):
    # evaluating such a symbol at Re(lambda) would be silently wrong
    f = make(hom)
    op = build_nonnormal_sectorial([1 + 0.2j, 1 - 0.2j, 2.0], 2.0, seed=1)
    with pytest.raises(CalculusError, match="no sector evaluation"):
        apply_spectral(op, f, np.ones(op.n))
    real = build_nonnormal_sectorial([0.5, 1.0, 2.0], 2.0, seed=1)
    assert np.all(np.isfinite(apply_spectral(real, f, np.ones(real.n))))


def test_apply_spectral_on_real_nonnormal_spectrum_matches_dense_similarity():
    op = build_nonnormal_sectorial([0.5, 1.0, 2.0, 4.0, 8.0], 10.0, seed=4)
    f = make_symbol("psi_exp", a=1.0, b=1.0)
    x = op.random_vector(np.random.default_rng(2))
    lam = np.real(op.eigenvalues_or_none())
    dense = (op.form.s * f(lam)) @ op.form.s_inv @ x
    assert np.linalg.norm(apply_spectral(op, f, x) - dense) <= 1e-13 * np.linalg.norm(dense)


def test_bisectorial_projections_of_an_orthonormal_form():
    # a positive spectrum on an orthonormal basis: P1 = I, P2 = 0
    op = build_dirichlet_laplacian_1d(6, 1.0)
    p1, p2 = bisectorial_projections(op)
    assert np.max(np.abs(p1.p - np.eye(op.n))) <= 1e-14
    assert np.max(np.abs(p2.p)) == 0.0
