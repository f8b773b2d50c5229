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
    even_multiplier_direct,
    even_multiplier_via_projections,
    fractional_power_apply,
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
from plcalc.norms import QuadratureSpec
from plcalc.partitions import build_homogeneous_dyadic, tilde
from plcalc.symbols import Symbol, make_symbol, window_symbol


def diagonal_operator(eigs):
    """Spectral operator with coordinate eigenvectors and unit weights."""
    lam = np.asarray(eigs, dtype=float)
    n = lam.size
    return ModelOperator(
        form=SpectralSelfAdjoint(lam, np.eye(n, dtype=complex)),
        measure=MeasureSpace.uniform(n),
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
    op = build_graph_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    # the calculus acts on the injective part, so negative powers stay
    # finite and never reach the kernel
    y = fractional_power_apply(op, -0.5, np.array([1.0, 0.0], dtype=complex))
    assert np.all(np.isfinite(y))
    assert abs(op.coefficients(y)[0]) <= 1e-15


def test_graph_calculus_drops_the_kernel_content():
    # x = constant + x1 with x1 in the range: A^0 x and f(A)x by the
    # contour see only x1
    op = build_graph_laplacian(np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]]))
    rng = np.random.default_rng(8)
    x1 = op.random_vector(rng)
    x1 = x1 - op.kernel_component(x1)
    x = x1 + 3.0 - 2.0j
    assert np.max(np.abs(fractional_power_apply(op, 0.0, x) - x1)) <= 1e-14
    f = make_symbol("psi_exp", a=1.0, b=1.0)
    y, _ = apply_contour(op, f, x)
    assert np.max(np.abs(y - apply_contour(op, f, x1)[0])) <= 1e-14
    assert np.max(np.abs(y - apply_spectral(op, f, x1))) <= 1e-8 * np.max(np.abs(x1))


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


def test_log_operator_and_group():
    # A^{is} x = e^{i s log A} x: the imag_power symbol against the group
    # written through log
    op = diagonal_operator([1.0, np.e, np.e**2])
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    s = 0.7
    za = apply_spectral(op, make_symbol("imag_power", s=s), x)
    zb = apply_spectral(op, Symbol(evaluate=lambda t: np.exp(1j * s * np.log(t))), x)
    assert np.linalg.norm(za - zb) <= 1e-10 * np.linalg.norm(x)


def test_bisectorial_projections_normal_case():
    op = build_nonnormal_sectorial([1.0, -1.0], 1.0, seed=6)
    p1, p2 = bisectorial_projections(op)
    # normal case: orthogonal projections
    for p in (p1, p2):
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12
    assert np.linalg.norm(p1 + p2 - np.eye(2)) < 1e-12
    assert np.linalg.norm(p1 @ p2) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_bisectorial_resolution_and_even_dual_path(seed, hom):
    lams = [1.0, 2.5, -1.5, -4.0, 0.5, -0.5]
    op = build_nonnormal_sectorial(lams, 8.0, seed)
    p1, p2 = bisectorial_projections(op)
    assert np.linalg.norm(p1 + p2 - np.eye(op.n)) < 1e-10
    assert np.linalg.norm(p1 @ p2) < 1e-10
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


def _log_trapezoid_inline(lo, hi, nodes_per_decade):
    # the rule both specs computed inline before they shared one function
    decades = np.log10(hi / lo)
    n = max(int(np.ceil(decades * nodes_per_decade)) + 1, 2)
    u = np.linspace(np.log(lo), np.log(hi), n)
    du = np.full(n, u[1] - u[0])
    du[0] *= 0.5
    du[-1] *= 0.5
    return np.exp(u), du


@pytest.mark.parametrize("lo, hi, per_decade", [(1e-4, 1e4, 32), (0.37, 0.41, 8),
                                                (2.0**-30, 3.0e5, 64)],
                         ids=["eight-decades", "two-nodes", "binary-lo"])
def test_contour_and_quadrature_nodes_are_one_log_trapezoid(lo, hi, per_decade):
    want = _log_trapezoid_inline(lo, hi, per_decade)
    for r, du in (ContourSpec(0.4, lo, hi, per_decade).nodes(),
                  QuadratureSpec(lo, hi, per_decade).nodes()):
        np.testing.assert_array_equal(r, want[0])
        np.testing.assert_array_equal(du, want[1])
    assert r[0] == pytest.approx(lo) and r[-1] == pytest.approx(hi) and r.size >= 2
    assert du[0] == du[-1] and np.sum(du) == pytest.approx(np.log(hi / lo))


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
    assert np.max(np.abs(p1 - np.eye(op.n))) <= 1e-14
    assert np.max(np.abs(p2)) == 0.0


def _certificate_operators():
    n = 128
    xg = (np.arange(1, n + 1) - (n + 1) / 2) * (4.0 / (n + 1))
    rng = np.random.default_rng(7)
    lams = np.geomspace(0.05, 4.0, 48) * np.exp(1j * rng.uniform(-0.3, 0.3, 48))
    path = np.eye(12) + np.diag(np.ones(11), 1) + np.diag(np.ones(11), -1)
    return {"nonnormal": build_nonnormal_sectorial(lams, 5.0, 7),
            "schrodinger": build_schrodinger_1d(n, 1.0, xg**2),
            "graph": build_graph_laplacian(path)}


@pytest.mark.parametrize("name", ["nonnormal", "schrodinger", "graph"])
def test_contour_gap_certificate_keeps_every_bit_and_skips_the_scan(monkeypatch, name):
    # where every eigenvalue keeps clear of both rays the node-by-eigenvalue
    # scan cannot fire, so it does not run, and nothing else moves
    from plcalc import calculus

    op = _certificate_operators()[name]
    x = op.random_vector(np.random.default_rng(5))
    calls = []
    scan = calculus.check_resolvent_gap
    monkeypatch.setattr(calculus, "check_resolvent_gap",
                        lambda *args: calls.append(1) or scan(*args))
    symbols = [make_symbol("rho"), make_symbol("psi_exp", a=2.0, b=1.0)]
    certified = [apply_contour(op, f, x) for f in symbols]
    assert calls == []
    # the certificate forced off: every ray runs the scan
    monkeypatch.setattr(calculus, "_ray_distance", lambda lam, *args: np.zeros(np.shape(lam)))
    for f, (y, tail) in zip(symbols, certified):
        y_scan, tail_scan = apply_contour(op, f, x)
        assert y.tobytes() == y_scan.tobytes() and tail == tail_scan
    assert len(calls) == 2 * len(symbols)


def test_contour_node_on_the_kernel_still_raises():
    # a graph's kernel eigenvalue 0 within RESOLVENT_MARGIN lambda_max of the
    # first node: the certificate cannot clear it, and the scan refuses
    from plcalc.operators import RESOLVENT_MARGIN, OperatorError

    op = _certificate_operators()["graph"]
    spec = ContourSpec(sigma=0.3, r_min=0.5 * RESOLVENT_MARGIN * op.lambda_max,
                       r_max=1e12 * op.lambda_max)
    with pytest.raises(OperatorError, match="is within tolerance of the spectrum"):
        apply_contour(op, make_symbol("rho"), np.ones(op.n), spec)


@pytest.mark.parametrize("name", ["nonnormal", "schrodinger", "graph"])
def test_contour_does_not_depend_on_the_blocking(monkeypatch, name):
    # the contour weights are node sums over blocks of BLOCK_POINTS grid
    # points; any block size gives the same f(A)x to round-off, and 10^7
    # holds the whole grid in one block
    from plcalc import calculus

    op = _certificate_operators()[name]
    x = op.random_vector(np.random.default_rng(5))
    for f in (make_symbol("rho"), make_symbol("psi_exp", a=2.0, b=1.0)):
        results = []
        for block in (1, 64, 1000, 10**7):
            monkeypatch.setattr(calculus, "BLOCK_POINTS", block)
            results.append(apply_contour(op, f, x))
        y_whole, tail_whole = results[-1]
        for y, tail in results:
            assert tail == tail_whole
            assert np.max(np.abs(y - y_whole)) <= 1e-14 * np.max(np.abs(y_whole))


def _traced_peak(call) -> int:
    """Peak bytes of this process's traced allocations during call()."""
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_no_spectral_quadrature_holds_a_node_by_eigenvalue_table():
    # a (node x eigenvalue) complex table is 919 x 128 x 16 bytes (1.9 MB) per
    # ray for rho on the 128-point Schroedinger operator and 1136 x 600 x 16
    # bytes (10.9 MB) per angle for the scan of the 600-point Dirichlet
    # operator; node blocks stay below 1 MB
    from plcalc.experiments import resolvent_scan

    ops = _certificate_operators()
    dirichlet = build_dirichlet_laplacian_1d(600, 1.0)
    rho = make_symbol("rho")
    calls = {"contour schrodinger": lambda: apply_contour(ops["schrodinger"], rho, np.ones(128)),
             "contour nonnormal": lambda: apply_contour(ops["nonnormal"], rho, np.ones(48)),
             "resolvent scan": lambda: resolvent_scan(dirichlet, [0.3, 0.6])}
    for name, call in calls.items():
        call()   # warm-up: lazy operator fields and first-call caches
        assert _traced_peak(call) < 1_000_000, name
