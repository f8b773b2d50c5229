"""Model operator builders, resolvents, kernel projections."""

import dataclasses

import numpy as np
import pytest

from plcalc.measure import weighted_symmetric_eig
from plcalc.operators import (
    GraphError,
    KernelProjection,
    OperatorError,
    SimilarityDiagonal,
    SpecKeyError,
    SpectralSelfAdjoint,
    _blend_conditioning,
    basis_matmul,
    build_dirichlet_laplacian_1d,
    build_graph_laplacian,
    build_hermite_operator,
    build_nonnormal_sectorial,
    build_schrodinger_1d,
    hermite_functions,
    kernel_projection_apply,
    operator_from_spec,
    resolvent_apply,
    resolvent_apply_lu,
    uniform_grid,
)


def test_dirichlet_n1_single_eigenvalue():
    op = build_dirichlet_laplacian_1d(1, 1.0)
    assert np.allclose(np.real(op.eigenvalues_or_none()), [2.0])
    assert np.allclose(op.matrix().real, [[2.0]])


def test_dirichlet_n2_eigenvalues():
    op = build_dirichlet_laplacian_1d(2, 1.0)
    assert np.allclose(np.real(op.eigenvalues_or_none()), [1.0, 3.0], atol=1e-12)


def test_dirichlet_n64_matches_dense_eigensolver():
    op = build_dirichlet_laplacian_1d(64, 1.0)
    lam_closed = np.real(op.eigenvalues_or_none())
    lam_dense, _ = weighted_symmetric_eig(op.matrix(), op.measure)
    assert np.max(np.abs(lam_closed - lam_dense)) < 1e-9
    # matrix really is the tridiagonal (2,-1,-1)
    mat = op.matrix().real
    assert np.allclose(np.diag(mat), 2.0, atol=1e-10)
    assert np.allclose(np.diag(mat, 1), -1.0, atol=1e-10)


def test_graph_two_node():
    op, kp = build_graph_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(op.measure.weights, [2.0, 2.0])
    assert np.allclose(np.sort(np.real(op.eigenvalues_or_none())), [0.0, 1.0], atol=1e-12)
    # projection is the mu-weighted mean
    out = kernel_projection_apply(kp, np.array([0.0, 2.0]))
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_graph_constants_in_kernel_and_idempotent_projection():
    rng = np.random.default_rng(2)
    sigma = rng.uniform(0.0, 1.0, (5, 5))
    sigma = sigma + sigma.T + np.eye(5)
    op, kp = build_graph_laplacian(sigma)
    const = np.ones(5, dtype=complex)
    assert np.max(np.abs(op.apply(const))) < 1e-13
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    px = kernel_projection_apply(kp, x)
    assert np.max(np.abs(kernel_projection_apply(kp, px) - px)) < 1e-10
    # I - P maps into the span of the nonzero modes: A-block reproduces it
    y = x - px
    lam = np.real(op.eigenvalues_or_none())
    coeff = op.coefficients(y)
    assert abs(coeff[np.argmin(np.abs(lam))]) < 1e-10


def test_graph_path4_spectrum_in_0_2():
    sigma = np.eye(4) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
    op, _ = build_graph_laplacian(sigma)
    lam = np.real(op.eigenvalues_or_none())
    assert np.all(lam >= -1e-12) and np.all(lam <= 2.0 + 1e-12)
    # the averaging operator P = I - A is a contraction wrt mu
    assert np.all(np.abs(1.0 - lam) <= 1.0 + 1e-12)


def test_graph_rejects_bad_weights():
    with pytest.raises(GraphError):
        build_graph_laplacian(np.array([[1.0, 2.0], [0.5, 1.0]]))   # asymmetric
    with pytest.raises(GraphError):
        build_graph_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))   # no loops
    disconnected = np.eye(4)
    with pytest.raises(GraphError):
        build_graph_laplacian(disconnected)


def test_hermite_eigenvalues():
    grid = uniform_grid(-8, 8, 400)
    op = build_hermite_operator(1, 3, grid)
    assert np.allclose(np.real(op.eigenvalues_or_none()), [1.0, 3.0, 5.0])
    op2 = build_hermite_operator(2, 1, grid)
    assert np.allclose(np.real(op2.eigenvalues_or_none()), [2.0])


def test_hermite_gram_after_orthonormalization():
    grid = uniform_grid(-8, 8, 400)
    # raw recurrence functions near-orthonormal on this grid
    v = hermite_functions(8, grid.points).T
    gram_raw = v.T @ (grid.weights[:, None] * v)
    assert np.max(np.abs(gram_raw - np.eye(8))) < 1e-6
    op = build_hermite_operator(1, 8, grid)
    q = op.form.eigenvectors
    gram = q.conj().T @ (grid.weights[:, None] * q)
    assert np.max(np.abs(gram - np.eye(8))) < 1e-6


def test_hermite_rejects_too_narrow_grid():
    with pytest.raises(OperatorError):
        build_hermite_operator(1, 16, uniform_grid(-3, 3, 200))


def test_schrodinger_reductions():
    op0 = build_schrodinger_1d(16, 1.0, np.zeros(16))
    lap = build_dirichlet_laplacian_1d(16, 1.0)
    assert np.allclose(np.real(op0.eigenvalues_or_none()),
                       np.real(lap.eigenvalues_or_none()), atol=1e-10)
    c = 0.7
    opc = build_schrodinger_1d(16, 1.0, np.full(16, c))
    assert np.allclose(np.real(opc.eigenvalues_or_none()),
                       np.real(lap.eigenvalues_or_none()) + c, atol=1e-10)


def test_schrodinger_quadratic_potential_raises_bottom():
    n = 128
    x = (np.arange(1, n + 1) - (n + 1) / 2) / 16.0
    op = build_schrodinger_1d(n, 1.0, x**2)
    lap = build_dirichlet_laplacian_1d(n, 1.0)
    assert op.lambda_min_positive >= lap.lambda_min_positive - 1e-12
    with pytest.raises(OperatorError):
        build_schrodinger_1d(4, 1.0, np.array([0.0, -0.1, 0.0, 0.0]))


def test_nonnormal_normal_case_and_conditioning():
    op = build_nonnormal_sectorial([1.0, 2.0], 1.0, seed=4)
    s = op.form.s
    assert np.linalg.cond(s) == pytest.approx(1.0, abs=1e-10)
    op10 = build_nonnormal_sectorial([1.0, 2.0], 10.0, seed=4)
    assert np.linalg.cond(op10.form.s) == pytest.approx(10.0, rel=0.05)
    # spectrum preserved exactly by construction: check assembled matrix
    lam = np.sort(np.linalg.eigvals(op10.matrix()).real)
    assert np.allclose(lam, [1.0, 2.0], atol=1e-8)
    assert np.linalg.norm(s @ op.form.s_inv - np.eye(2)) < 1e-10


def test_nonnormal_rejects_bad_input():
    with pytest.raises(OperatorError):
        build_nonnormal_sectorial([1.0, 2.0], 0.5, seed=0)
    with pytest.raises(OperatorError):
        build_nonnormal_sectorial([0.0, 1.0], 2.0, seed=0)
    with pytest.raises(OperatorError):
        build_nonnormal_sectorial([1j], 2.0, seed=0)   # on the imaginary axis


def test_sector_containment_all_builders():
    ops = [
        build_dirichlet_laplacian_1d(8, 0.5),
        build_graph_laplacian(np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3)))[0],
        build_hermite_operator(1, 4, uniform_grid(-8, 8, 400)),
        build_nonnormal_sectorial([1 + 0.2j, 1 - 0.2j, 3.0], 5.0, 0),
    ]
    for op in ops:
        lam = op.eigenvalues_or_none()
        nz = lam[np.abs(lam) > 1e-12 * op.lambda_max]
        assert np.max(np.abs(np.angle(nz))) <= op.sector_angle_hint + 1e-12


def test_resolvent_scalar_and_diagonal():
    op = build_nonnormal_sectorial([1.0], 1.0, 0)
    # basis is a 1x1 orthogonal matrix: +-1; resolvent value is basis-free
    y = resolvent_apply(op, -1.0, np.array([1.0 + 0j]))
    assert y[0] == pytest.approx(-0.5, abs=1e-14)
    op2 = build_dirichlet_laplacian_1d(2, 1.0)   # eigenvalues 1, 2... no: 1, 3
    lam = np.real(op2.eigenvalues_or_none())
    x = op2.form.eigenvectors[:, 0]
    y = resolvent_apply(op2, 3j, x)
    assert np.allclose(y, x / (3j - lam[0]), atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_resolvent_dual_path_and_identity(seed):
    rng = np.random.default_rng(seed)
    op = build_schrodinger_1d(24, 1.0, rng.uniform(0, 1, 24))
    x = op.random_vector(rng)
    lam1, lam2 = -0.7 + 0.3j, 2.0j
    ya = resolvent_apply(op, lam1, x)
    yb = resolvent_apply_lu(op, lam1, x)
    assert np.linalg.norm(ya - yb) <= 1e-10 * np.linalg.norm(x)
    # resolvent identity R(l1) - R(l2) = (l2 - l1) R(l1) R(l2)
    lhs = resolvent_apply(op, lam1, x) - resolvent_apply(op, lam2, x)
    rhs = (lam2 - lam1) * resolvent_apply(op, lam1, resolvent_apply(op, lam2, x))
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)
    # residual contract
    y = resolvent_apply(op, lam1, x)
    assert np.linalg.norm(lam1 * y - op.apply(y) - x) <= 1e-9 * np.linalg.norm(x)


def test_resolvent_rejects_spectrum_touch():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    lam0 = np.real(op.eigenvalues_or_none())[0]
    with pytest.raises(OperatorError):
        resolvent_apply(op, complex(lam0), np.ones(8, dtype=complex))


def test_selfadjoint_ray_bound():
    # sup over the ray arg lambda = omega of max_k |lambda| / |lambda - lam_k|
    # is below 1/sin(omega)
    op = build_dirichlet_laplacian_1d(32, 1.0)
    lam = np.real(op.eigenvalues_or_none())
    for omega in (0.2, 0.7, 1.2):
        r = np.logspace(-4, 3, 4000)
        z = r * np.exp(1j * omega)
        sup = np.max(np.abs(z)[:, None] / np.abs(z[:, None] - lam[None, :]))
        assert sup <= 1.0 / np.sin(omega) + 1e-9


def test_kernel_projection_validation():
    with pytest.raises(OperatorError):
        KernelProjection(np.array([[0.5, 0.0], [0.0, 0.5]]))
    kp = KernelProjection(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(kernel_projection_apply(kp, np.array([2.0, 3.0])), [2.0, 0.0])


def test_operator_from_spec_roundtrip():
    op = operator_from_spec({"kind": "dirichlet1d", "n": 2, "h": 1.0})
    assert op.lambda_min_positive == pytest.approx(1.0, abs=1e-12)
    assert op.lambda_max == pytest.approx(3.0, abs=1e-12)
    op = operator_from_spec({"kind": "schrodinger", "n": 8, "h": 1.0,
                             "V": {"quadratic": 0.25}})
    assert op.injective
    op = operator_from_spec({"kind": "nonnormal",
                             "lambdas": [[1.0, 0.0], [2.0, 0.5]],
                             "conditioning": 3.0, "seed": 1})
    assert op.n == 2
    with pytest.raises(OperatorError):
        operator_from_spec({"kind": "unknown"})
    with pytest.raises((OperatorError, KeyError)):
        operator_from_spec({"no_kind": 1})


@pytest.mark.parametrize("spec, key", [
    ({"kind": "dirichlet1d", "n": 4, "hh": 0.5}, "'hh'"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"lo": -8, "hi": 8, "N": 400}}, "'N'"),
    ({"kind": "schrodinger", "n": 8, "V": {"quadratic": 0.1, "cubic": 1.0}}, "'cubic'"),
])
def test_operator_from_spec_rejects_unknown_keys(spec, key):
    with pytest.raises(SpecKeyError, match=key):
        operator_from_spec(spec)


def test_injective_operators_have_no_kernel_projection():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    assert op.kernel_projection is None       # absent projection means P = 0
    assert op.kernel_dim() == 0


# -- real bases -------------------------------------------------------------------

def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_basis_matmul_real_basis_equals_complex_product():
    rng = np.random.default_rng(3)
    n, k, m = 40, 24, 7
    b = rng.standard_normal((n, k))
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    stack = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    rows = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    bc = b.astype(complex)
    # a vector, a K x m stack and the transposed row stack of spectral_multiplier
    for operand in (z, stack, rows.T):
        out = basis_matmul(b, operand)
        assert out.dtype == complex and out.shape == (bc @ operand).shape
        assert _rel(out, bc @ operand) <= 1e-15
    # the transposed view of coefficient transforms, on a complex and a real operand
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert _rel(basis_matmul(b.T, w), bc.T @ w) <= 1e-15
    assert _rel(basis_matmul(b.T, w.real), bc.T @ w.real) <= 1e-15
    # a complex basis takes the plain product
    bz = bc + 1j * rng.standard_normal((n, k))
    assert np.array_equal(basis_matmul(bz, stack), bz @ stack)


_BUILDERS = {
    "dirichlet": lambda: build_dirichlet_laplacian_1d(16, 0.5),
    "graph": lambda: build_graph_laplacian(np.eye(4) + 0.5 * (np.ones((4, 4)) - np.eye(4)))[0],
    "hermite": lambda: build_hermite_operator(1, 8, uniform_grid(-10, 10, 400)),
    "schrodinger": lambda: build_schrodinger_1d(16, 1.0, np.linspace(0.0, 1.0, 16)),
    "nonnormal": lambda: build_nonnormal_sectorial([1 + 0.2j, 1 - 0.2j, 3.0, 0.5], 5.0, 0),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_store_real_bases_and_keep_their_checks(name):
    op = _BUILDERS[name]()
    form = op.form
    if isinstance(form, SpectralSelfAdjoint):
        assert form.eigenvectors.dtype == np.float64
        assert form.eigenvalues.dtype == np.float64
        q = form.eigenvectors.copy()
        q[:, 0] *= 1.0 + 1e-6
        bad = SpectralSelfAdjoint(form.eigenvalues, q)
        with pytest.raises(OperatorError, match="orthonormal"):
            dataclasses.replace(op, form=bad)
    else:
        assert form.s.dtype == np.float64 and form.s_inv.dtype == np.float64
        assert form.eigenvalues.dtype == complex
        s_inv = form.s_inv.copy()
        s_inv[0, 0] += 1e-6
        with pytest.raises(OperatorError, match="similarity"):
            dataclasses.replace(op, form=SimilarityDiagonal(form.s, s_inv, form.eigenvalues))
    # transforms still return complex and round-trip
    x = op.random_vector(np.random.default_rng(1))
    assert x.dtype == complex
    assert _rel(op.synthesize(op.coefficients(x)), x) <= 1e-12


@pytest.mark.parametrize("n, kappa, seed", [
    (96, 10.0, 3), (64, 10.0, 12345), (48, 5.0, 7), (16, 100.0, 1), (5, 10.0, 2)])
def test_conditioning_search_hits_kappa_in_few_condition_numbers(monkeypatch, n, kappa, seed):
    calls = []
    cond = np.linalg.cond

    def counting(a, *args):
        calls.append(1)
        return cond(a, *args)

    monkeypatch.setattr(np.linalg, "cond", counting)
    s = _blend_conditioning(n, kappa, np.random.default_rng(seed))
    assert len(calls) <= 20
    assert s.dtype == np.float64
    assert abs(cond(s) / kappa - 1.0) <= 1e-12


def test_hermite_qr_basis_matches_weighted_gram_schmidt():
    k = 16
    grid = uniform_grid(-13.0, 13.0, 640)
    op = build_hermite_operator(1, k, grid)
    w = grid.weights
    q = hermite_functions(k, grid.points).T.copy()
    for i in range(k):                     # modified Gram-Schmidt, weighted
        for j in range(i):
            q[:, i] -= (q[:, j] @ (w * q[:, i])) * q[:, j]
        q[:, i] /= np.sqrt(q[:, i] @ (w * q[:, i]))
    assert np.max(np.abs(op.form.eigenvectors - q)) <= 1e-14


def test_kernel_mask_and_bounds_are_read_off_the_spectrum():
    op, _ = build_graph_laplacian(np.eye(4) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1))
    lam = np.real(op.eigenvalues_or_none())
    assert op.nonzero.tolist() == [False, True, True, True]
    assert op.kernel_dim() == 1
    assert op.lambda_min_positive == lam[1] and op.lambda_max == lam[-1]
    assert build_dirichlet_laplacian_1d(5, 1.0).nonzero.all()


def test_multiplier_norm_and_basis_conditioning():
    rng = np.random.default_rng(3)
    sa = build_dirichlet_laplacian_1d(6, 1.0)
    v = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    # orthonormal basis: the sup of |v|, one norm per row of a stack
    np.testing.assert_array_equal(sa.multiplier_norm(v), np.max(np.abs(v), axis=1))
    assert sa.multiplier_norm(v[0]) == np.max(np.abs(v[0]))
    assert sa.basis_conditioning() == 1.0
    nn = build_nonnormal_sectorial([0.5, 1.0, 2.0, 4.0, 8.0, 16.0], 10.0, seed=1)
    s, s_inv = nn.form.s, nn.form.s_inv
    exact = [np.linalg.norm((s * row) @ s_inv, 2) for row in v]
    np.testing.assert_allclose(nn.multiplier_norm(v), exact, rtol=1e-13)
    assert nn.multiplier_norm(v[1]) == pytest.approx(exact[1], rel=1e-13)
    assert nn.basis_conditioning() == pytest.approx(10.0, rel=0.05)
