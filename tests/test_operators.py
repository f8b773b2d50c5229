"""Model operator builders, resolvents, kernel projections, spectral flags."""

import dataclasses

import numpy as np
import pytest

from plcalc.measure import MeasureSpace, weighted_symmetric_eig
from plcalc.norms import _field_evaluator
from plcalc import operators
from plcalc.operators import (
    FOLD_MIN_N,
    SINE_MIN_N,
    FoldedSelfAdjoint,
    GraphError,
    ModelOperator,
    OperatorError,
    SimilarityDiagonal,
    SineTransform,
    SpecKeyError,
    SpecValueError,
    SpectralSelfAdjoint,
    _blend_conditioning,
    basis_matmul,
    build_dirichlet_laplacian_1d,
    build_graph_laplacian,
    build_hermite_operator,
    build_nonnormal_sectorial,
    build_schrodinger_1d,
    hermite_functions,
    operator_from_spec,
    resolvent_apply,
    resolvent_apply_lu,
    uniform_grid,
)


def _basis(op):
    """The eigenvectors of a real operator as the columns of an n x K array,
    read through the operator: the synthesis of unit coefficient vectors."""
    synth = op.synthesize(np.eye(op.eigenvalues_or_none().size))
    assert not np.any(synth.imag)
    return synth.real


def _with_block_entry(op, block, index, value):
    """op with one entry of one stored basis block replaced."""
    blocks = op.form.blocks.copy()
    blocks[block][index] = value
    return dataclasses.replace(op, form=dataclasses.replace(op.form, blocks=blocks))


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


def test_dirichlet_basis_sines_are_exact_to_round_off():
    # Q is gathered from one table of 2(n+1) sines by the exact reduction of
    # i k mod 2(n+1): every entry lies within 1e-16 of the extended-precision
    # sine, where sin(i k pi/(n+1)) at arguments up to n pi is 1e-14 off
    n = 512
    op = build_dirichlet_laplacian_1d(n, 1.0)
    k = np.arange(1, n + 1)
    pi = 4 * np.arctan(np.longdouble(1))
    exact = np.sin(np.outer(k, k).astype(np.longdouble) * pi / (n + 1)) \
        * np.sqrt(np.longdouble(2) / (n + 1))
    q = _basis(op)
    assert float(np.max(np.abs(q - exact))) <= 1e-16
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 5e-15


def test_graph_two_node():
    op = build_graph_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(op.measure.weights, [2.0, 2.0])
    assert np.allclose(np.sort(np.real(op.eigenvalues_or_none())), [0.0, 1.0], atol=1e-12)
    # projection is the mu-weighted mean
    out = op.kernel_component(np.array([0.0, 2.0]))
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_graph_constants_in_kernel_and_idempotent_projection():
    rng = np.random.default_rng(2)
    sigma = rng.uniform(0.0, 1.0, (5, 5))
    sigma = sigma + sigma.T + np.eye(5)
    op = build_graph_laplacian(sigma)
    const = np.ones(5, dtype=complex)
    assert np.max(np.abs(op.apply(const))) < 1e-13
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    px = op.kernel_component(x)
    assert np.max(np.abs(op.kernel_component(px) - px)) < 1e-10
    # I - P maps into the span of the nonzero modes: A-block reproduces it
    y = x - px
    lam = np.real(op.eigenvalues_or_none())
    coeff = op.coefficients(y)
    assert abs(coeff[np.argmin(np.abs(lam))]) < 1e-10


def test_graph_path4_spectrum_in_0_2():
    sigma = np.eye(4) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
    op = build_graph_laplacian(sigma)
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
    # the 2-D operator has eigenvalue 2 + 2k with multiplicity k + 1, not the
    # 1-D spectrum shifted by one: any d other than 1 is refused, not built
    for d in (0, 2, 3):
        with pytest.raises(OperatorError, match=f"dimension d = {d}"):
            build_hermite_operator(d, 1, grid)
        with pytest.raises(OperatorError, match=f"dimension d = {d}"):
            operator_from_spec({"kind": "hermite", "d": d, "K": 2})


def test_hermite_gram_after_orthonormalization():
    grid = uniform_grid(-8, 8, 400)
    # raw recurrence functions near-orthonormal on this grid
    v = hermite_functions(8, grid.points).T
    gram_raw = v.T @ (grid.weights[:, None] * v)
    assert np.max(np.abs(gram_raw - np.eye(8))) < 1e-6
    op = build_hermite_operator(1, 8, grid)
    q = _basis(op)
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
    # a conditioning that is not a finite number >= 1 is refused, not blended
    for conditioning in (np.nan, np.inf):
        with pytest.raises(OperatorError, match="conditioning must be finite and >= 1"):
            build_nonnormal_sectorial([1.0, 2.0], conditioning, seed=0)


def test_sector_containment_all_builders():
    ops = [
        build_dirichlet_laplacian_1d(8, 0.5),
        build_graph_laplacian(np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3))),
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
    x = _basis(op2)[:, 0]
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
    with pytest.raises(SpecValueError, match="unknown operator kind 'unknown'"):
        operator_from_spec({"kind": "unknown"})
    with pytest.raises(SpecValueError, match="an object with a 'kind'"):
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
    # P = 0, so x - P x is x bit for bit, off-span content of a Hermite
    # vector (outside its K-mode span) included
    op = build_dirichlet_laplacian_1d(4, 1.0)
    assert op.kernel_dim() == 0
    herm = build_hermite_operator(1, 6, uniform_grid(-10, 10, 300))
    rng = np.random.default_rng(4)
    for a in (op, herm):
        x = rng.standard_normal(a.n) + 1j * rng.standard_normal(a.n)
        assert not np.any(a.kernel_component(x))
        assert np.array_equal(x - a.kernel_component(x), x)
    assert np.linalg.norm(x - herm.synthesize(herm.coefficients(x))) > 0.1


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
    "dirichlet_folded": lambda: build_dirichlet_laplacian_1d(FOLD_MIN_N, 0.5),
    "dirichlet_sine": lambda: build_dirichlet_laplacian_1d(SINE_MIN_N, 0.5),
    "graph": lambda: build_graph_laplacian(np.eye(4) + 0.5 * (np.ones((4, 4)) - np.eye(4))),
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
    elif isinstance(form, FoldedSelfAdjoint):
        assert form.blocks.dtype == np.float64
        assert form.eigenvalues.dtype == np.float64
        for block in (0, 1):
            with pytest.raises(OperatorError, match="orthonormal"):
                _with_block_entry(op, block, (0, 0), form.blocks[block][0, 0] * (1.0 + 1e-6))
    elif isinstance(form, SineTransform):
        # no basis is stored: the gate checks the measure and a round trip
        assert form.eigenvalues.dtype == np.float64
        assert not any(np.ndim(v) == 2 for v in vars(form).values())
        with pytest.raises(OperatorError, match="uniform measure"):
            dataclasses.replace(op, form=SineTransform(form.eigenvalues, form.h * (1.0 + 1e-6)))
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
    assert np.max(np.abs(_basis(op) - q)) <= 1e-14


def test_kernel_mask_and_bounds_are_read_off_the_spectrum():
    op = build_graph_laplacian(np.eye(4) + np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1))
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


def test_basis_conditioning_is_computed_once(monkeypatch):
    # the first call runs the two SVDs; later calls return the same float
    nn = build_nonnormal_sectorial([0.5, 1.0, 2.0, 4.0], 10.0, seed=2)
    exact = float(np.linalg.norm(nn.form.s, 2) * np.linalg.norm(nn.form.s_inv, 2))
    assert nn.basis_conditioning() == exact
    calls = []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(a))
    assert nn.basis_conditioning() == exact and not calls
    monkeypatch.undo()
    # a replaced form gets its own value, not the cached one
    other = build_nonnormal_sectorial([0.5, 1.0, 2.0, 4.0], 3.0, seed=2)
    moved = dataclasses.replace(nn, form=other.form)
    assert moved.basis_conditioning() == pytest.approx(3.0, rel=0.05)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_coefficients_of_a_stack_match_its_columns(m):
    # the measure weights scale the rows of an n x m stack: a non-uniform
    # measure (graph degrees 3, 3, 4) and m != n included
    op = build_graph_laplacian(np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]]))
    rng = np.random.default_rng(m)
    x = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    stack = op.coefficients(x)
    columns = np.stack([op.coefficients(x[:, j]) for j in range(m)], axis=1)
    assert stack.shape == (3, m)
    assert np.max(np.abs(stack - columns)) <= 1e-15


# -- what the operator reads off its spectrum ---------------------------------------

def _random_connected_sigma(n, rng):
    sigma = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.2)
    sigma = sigma + sigma.T + np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return sigma


@pytest.mark.parametrize("sigma", [
    np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]]),
    _random_connected_sigma(48, np.random.default_rng(48)),
], ids=["3-vertex", "random-48"])
def test_spectral_kernel_projection_is_the_mu_weighted_mean(sigma):
    op = build_graph_laplacian(sigma)
    mu = op.measure.weights
    rng = np.random.default_rng(5)
    x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    x /= np.max(np.abs(x))
    mean = np.full(op.n, np.sum(mu * x) / np.sum(mu))
    assert np.max(np.abs(op.kernel_component(x) - mean)) <= 1e-14
    # a stack of n columns (as many as there are modes) projects column by column
    stack = rng.standard_normal((op.n, op.n)) + 1j * rng.standard_normal((op.n, op.n))
    columns = np.stack([op.kernel_component(stack[:, j]) for j in range(op.n)], axis=1)
    assert np.max(np.abs(op.kernel_component(stack) - columns)) <= 1e-14


def _declared_flags(lambdas):
    # reference flags straight from the eigenvalue list (no zeros): injective;
    # bisectorial iff some real part is negative; the largest |arg|, folded
    # to the nearer half-axis when bisectorial
    lam = np.asarray(lambdas, dtype=complex)
    ang = np.abs(np.angle(lam))
    bisect = bool(np.any(np.real(lam) < 0))
    if bisect:
        ang = np.minimum(ang, np.pi - ang)
    return True, bisect, float(np.max(ang))


@pytest.mark.parametrize("build, flags", [
    (_BUILDERS["dirichlet"], (True, False, 0.0)),
    (_BUILDERS["graph"], (False, False, 0.0)),
    (_BUILDERS["hermite"], (True, False, 0.0)),
    (_BUILDERS["schrodinger"], (True, False, 0.0)),
    (_BUILDERS["nonnormal"], _declared_flags([1 + 0.2j, 1 - 0.2j, 3.0, 0.5])),
    (lambda: build_nonnormal_sectorial([1.0, 2.0, -1.5 + 0.4j, -4.0, 0.5 - 0.1j], 3.0, 2),
     _declared_flags([1.0, 2.0, -1.5 + 0.4j, -4.0, 0.5 - 0.1j])),
], ids=["dirichlet", "graph", "hermite", "schrodinger", "nonnormal", "bisectorial"])
def test_flags_read_off_the_spectrum_equal_the_builders_values(build, flags):
    op = build()
    assert (op.injective, op.bisectorial, op.sector_angle_hint) == flags
    assert type(op.injective) is bool and type(op.bisectorial) is bool


def test_a_spectrum_on_the_sector_boundary_is_rejected():
    eye = np.eye(2)
    for lam in ([1.0, 2j], [1.0, -1j]):
        with pytest.raises(OperatorError, match="strictly inside"):
            ModelOperator(SimilarityDiagonal(eye, eye, np.array(lam, dtype=complex)),
                          MeasureSpace.uniform(2))
    # a negative real part folds the angle to the nearer half-axis
    op = ModelOperator(SimilarityDiagonal(eye, eye, np.array([1.0, -2.0 + 0.5j])),
                       MeasureSpace.uniform(2))
    assert op.bisectorial and op.sector_angle_hint == pytest.approx(np.arctan(0.25))


def test_non_finite_eigenvectors_are_rejected():
    # a NaN or inf entry makes the Gram defect NaN, which fails the gate
    op = build_dirichlet_laplacian_1d(6, 1.0)
    for bad in (np.nan, np.inf):
        q = op.form.eigenvectors.copy()
        q[2, 4] = bad
        with pytest.raises(OperatorError, match=r"non-finite eigenvector entries at \(2, 4\)$"):
            dataclasses.replace(op, form=SpectralSelfAdjoint(op.form.eigenvalues, q))
    # a folded form names the block and the entry within it
    for n, block, index in ((6, 0, (2, 1)), (6, 1, (0, 2)), (8, 0, (3, 0)), (8, 1, (2, 2))):
        folded = _folded_dirichlet(n, 1.0)
        name = ("even", "odd")[block]
        for bad in (np.nan, np.inf):
            with pytest.raises(OperatorError, match=rf"non-finite entries of the {name} block "
                                                    rf"at \({index[0]}, {index[1]}\)$"):
                _with_block_entry(folded, block, index, bad)


def test_non_finite_similarity_is_rejected():
    op = build_nonnormal_sectorial([1.0, 2.0, 3.0], 2.0, 0)
    s = op.form.s.copy()
    s[1, 0] = np.nan
    with pytest.raises(OperatorError, match=r"similarity.*non-finite entries of S at \(1, 0\)$"):
        dataclasses.replace(op, form=SimilarityDiagonal(s, op.form.s_inv, op.form.eigenvalues))


def test_half_line_fault_is_read_off_the_spectrum_once():
    # complex before negative, both up to ZERO_EIG_TOL lambda_max
    eye = np.eye(2)

    def fault(lam):
        form = SimilarityDiagonal(eye, eye, np.array(lam, dtype=complex))
        return ModelOperator(form, MeasureSpace.uniform(2)).half_line_fault

    assert fault([1.0, 2.0 + 1e-13j]) is None and fault([2.0, -1e-13]) is None
    assert fault([1.0, 2.0 + 1e-9j]) == "complex"
    assert fault([1.0, -2.0 + 1e-9j]) == "complex"
    assert fault([1.0, -2.0]) == "negative"
    assert build_dirichlet_laplacian_1d(4, 1.0).half_line_fault is None


def test_non_finite_eigenvalues_are_named_not_read_as_an_empty_spectrum():
    # a NaN or inf eigenvalue made the kernel threshold NaN or inf, so every
    # eigenvalue counted as zero and the message blamed the spectrum's zeros
    eye = np.eye(2)
    for lam in ([1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(OperatorError, match=r"not finite: non-finite eigenvalues at 1$"):
            ModelOperator(SimilarityDiagonal(eye, eye, np.array(lam, dtype=complex)),
                          MeasureSpace.uniform(2))
    op = _folded_dirichlet(6, 1.0)
    lam = op.form.eigenvalues.copy()
    lam[3] = np.nan
    with pytest.raises(OperatorError, match=r"non-finite eigenvalues at 3$"):
        dataclasses.replace(op, form=dataclasses.replace(op.form, eigenvalues=lam))


# -- the folded (even/odd) form, against a dense construction -----------------

def _dense_dirichlet(n, h):
    """The unfolded Dirichlet eigenbasis: every sin(i k pi/(n+1)) from the same
    table of 2(n+1) scaled sines, and the closed-form eigenvalues."""
    k = np.arange(1, n + 1)
    table = np.sin(np.arange(2 * (n + 1)) * np.pi / (n + 1)) * np.sqrt(2.0 / ((n + 1) * h))
    return (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2, table[np.outer(k, k) % (2 * (n + 1))]


def _folded_dirichlet(n, h):
    """The Dirichlet operator at an even n >= 2 in the folded form, its blocks
    cut from the dense basis: the top rows of the odd-k (even) modes and of
    the even-k (odd) modes.  At an odd n the cut is the two unequal blocks
    (the middle row with the even modes), which the form refuses."""
    lam, q = _dense_dirichlet(n, h)
    if n % 2:
        blocks = (q[:n - n // 2, 0::2].copy(), q[:n // 2, 1::2].copy())
    else:
        blocks = np.stack((q[:n // 2, 0::2], q[:n // 2, 1::2]))
    return ModelOperator(FoldedSelfAdjoint(lam, blocks), MeasureSpace(np.full(n, h)))


def _assert_odd_fold_refused(n, h):
    with pytest.raises(OperatorError, match="2 x n/2 x n/2 array"):
        _folded_dirichlet(n, h)


def _dirichlet_form(n):
    """The form the Dirichlet builder picks at n points."""
    if n >= SINE_MIN_N:
        return SineTransform
    return FoldedSelfAdjoint if n >= FOLD_MIN_N and n % 2 == 0 else SpectralSelfAdjoint


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, FOLD_MIN_N - 1, FOLD_MIN_N, FOLD_MIN_N + 1, 512])
def test_dirichlet_matches_the_dense_basis_folded_or_not(n):
    h = 0.75
    built = build_dirichlet_laplacian_1d(n, h)
    assert type(built.form) is _dirichlet_form(n)
    if n % 2:
        _assert_odd_fold_refused(n, h)
    lam, q = _dense_dirichlet(n, h)
    w = built.measure.weights
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    c = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for op in [built] + ([_folded_dirichlet(n, h)] if n % 2 == 0 else []):
        assert _rel(np.real(op.eigenvalues_or_none()), lam) <= 1e-14
        assert _rel(op.coefficients(x), q.T @ (w[:, None] * x)) <= 1e-14
        assert _rel(op.coefficients(x[:, 1]), q.T @ (w * x[:, 1])) <= 1e-14
        assert _rel(op.synthesize(c), q @ c) <= 1e-14
        assert _rel(op.synthesize(c[:, 2]), q @ c[:, 2]) <= 1e-14
        assert _rel(op.matrix(), (q * lam) @ (q.T * w)) <= 1e-14
        assert _rel(_basis(op), q) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 64, 65, FOLD_MIN_N, FOLD_MIN_N + 1])
def test_folded_block_grams_are_the_dense_gram_of_the_implied_basis(n):
    # the Gram matrix of the implied basis is block-diagonal: even modes
    # (0, 2, 4, ...) against odd modes (1, 3, ...) vanish, and each diagonal
    # block is the Gram matrix of its stored block in the folded weights;
    # an odd n keeps one block
    if n % 2:
        assert isinstance(build_dirichlet_laplacian_1d(n, 0.75).form, SpectralSelfAdjoint)
        _assert_odd_fold_refused(n, 0.75)
        return
    op = _folded_dirichlet(n, 0.75) if n < FOLD_MIN_N else build_dirichlet_laplacian_1d(n, 0.75)
    q, w = _basis(op), op.measure.weights
    gram = q.T @ (w[:, None] * q)
    even, odd = op.form.blocks
    wf = 2.0 * w[:n // 2]
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(gram[0::2, 0::2] - even.T @ (wf[:, None] * even))) <= 1e-14 * scale
    assert np.max(np.abs(gram[1::2, 1::2] - odd.T @ (wf[:, None] * odd))) <= 1e-14 * scale
    assert np.max(np.abs(gram[0::2, 1::2])) <= 1e-14 * scale


@pytest.mark.parametrize("n", [16, 17, FOLD_MIN_N, FOLD_MIN_N + 1])
def test_folded_gram_gate_fails_on_one_bad_entry_in_either_block(n):
    if n % 2:
        assert isinstance(build_dirichlet_laplacian_1d(n, 1.0).form, SpectralSelfAdjoint)
        _assert_odd_fold_refused(n, 1.0)
        return
    op = _folded_dirichlet(n, 1.0) if n < FOLD_MIN_N else build_dirichlet_laplacian_1d(n, 1.0)
    for block in (0, 1):
        rows = op.form.blocks[block].shape[0]
        for index in ((0, 0), (rows - 1, 2)):
            entry = op.form.blocks[block][index]
            for bad in (entry * (1.0 + 1e-6), entry + 1e-6, np.nan):
                with pytest.raises(OperatorError, match="orthonormal"):
                    _with_block_entry(op, block, index, bad)
    # an untouched copy of the blocks passes
    assert _with_block_entry(op, 0, (0, 0), op.form.blocks[0][0, 0]).n == n


def test_folded_form_needs_a_mirror_symmetric_measure_and_matching_blocks():
    op = _folded_dirichlet(6, 1.0)
    w = op.measure.weights.copy()
    w[0] *= 1.0 + 1e-15
    with pytest.raises(OperatorError, match="mirror-symmetric"):
        dataclasses.replace(op, measure=MeasureSpace(w))
    with pytest.raises(OperatorError, match="2 x n/2 x n/2 array"):
        dataclasses.replace(op, measure=MeasureSpace.uniform(8))
    # any other shape of the blocks: an odd n, a tuple of blocks, one block
    with pytest.raises(OperatorError, match="2 x n/2 x n/2 array"):
        dataclasses.replace(op, measure=MeasureSpace.uniform(7))
    for blocks in (tuple(op.form.blocks), op.form.blocks[:1], op.form.blocks[:, :2]):
        with pytest.raises(OperatorError, match="2 x n/2 x n/2 array"):
            dataclasses.replace(op, form=dataclasses.replace(op.form, blocks=blocks))


def test_only_large_dirichlet_operators_are_folded():
    sym = (np.arange(1, 17) - 8.5) ** 2 / 64.0
    one_block = [
        build_graph_laplacian(np.eye(4) + 0.5 * (np.ones((4, 4)) - np.eye(4))),
        build_hermite_operator(1, 8, uniform_grid(-10, 10, 400)),
        build_schrodinger_1d(16, 1.0, np.linspace(0.0, 1.0, 16)),
        build_schrodinger_1d(16, 1.0, sym),
        build_dirichlet_laplacian_1d(FOLD_MIN_N - 1, 1.0),
        build_dirichlet_laplacian_1d(FOLD_MIN_N + 1, 1.0),      # odd n keeps one block
    ]
    assert all(isinstance(op.form, SpectralSelfAdjoint) for op in one_block)
    for n in (FOLD_MIN_N, FOLD_MIN_N + 2):
        assert build_dirichlet_laplacian_1d(n, 1.0).form.blocks.shape == (2, n // 2, n // 2)


# -- the sine transform (no stored basis), against the dense basis ------------

@pytest.mark.parametrize("n, form", [
    (SINE_MIN_N - 2, FoldedSelfAdjoint),
    (SINE_MIN_N - 1, SpectralSelfAdjoint),
    (SINE_MIN_N, SineTransform),
    (SINE_MIN_N + 1, SineTransform),
])
def test_dirichlet_form_at_the_sine_transform_boundary(n, form):
    assert type(build_dirichlet_laplacian_1d(n, 1.0).form) is form


@pytest.mark.parametrize("h", [0.75, 1.0])
@pytest.mark.parametrize("n", [512, 513, 700, 1024])
def test_sine_transform_matches_the_dense_basis(n, h):
    op = build_dirichlet_laplacian_1d(n, h)
    assert isinstance(op.form, SineTransform)
    lam, q = _dense_dirichlet(n, h)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    c = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    assert _rel(np.real(op.eigenvalues_or_none()), lam) <= 1e-14
    assert _rel(op.coefficients(x), q.T @ (h * x)) <= 1e-14
    assert _rel(op.coefficients(x[:, 1]), q.T @ (h * x[:, 1])) <= 1e-14
    assert _rel(op.synthesize(c), q @ c) <= 1e-14
    assert _rel(op.synthesize(c[:, 2]), q @ c[:, 2]) <= 1e-14
    assert _rel(op.matrix(), (q * lam) @ (q.T * h)) <= 1e-14
    # Parseval energies of a multiplier stack, one row a multiplier
    values = np.vstack([np.exp(-lam), lam / (1.0 + lam), np.ones(n)])
    dense = np.square(np.abs(values)) @ np.square(np.abs(q.T @ (h * x[:, 0])))
    assert _rel(_field_evaluator(op, values, 2)(x[:, 0]) ** 2, dense) <= 1e-14


@pytest.mark.parametrize("n", [SINE_MIN_N, SINE_MIN_N + 1])
def test_sine_transform_of_a_real_operand_is_exactly_real(n):
    op = build_dirichlet_laplacian_1d(n, 0.75)
    rng = np.random.default_rng(1)
    for real in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        for out in (op.coefficients(real), op.synthesize(real)):
            assert out.dtype == complex and out.shape == real.shape
            assert not np.any(out.imag)
    assert not np.any(op.synthesize(np.eye(n)).imag)


def test_sine_transform_gate_refuses_a_measure_or_scale_it_does_not_fit():
    n, h = SINE_MIN_N, 0.75
    op = build_dirichlet_laplacian_1d(n, h)
    lam = op.form.eigenvalues
    w = np.full(n, h)
    w[7] *= 1.0 + 1e-15
    with pytest.raises(OperatorError, match="uniform measure"):
        dataclasses.replace(op, measure=MeasureSpace(w))
    for size in (n - 1, n + 1):
        with pytest.raises(OperatorError, match=f"needs {n} points, not {size}"):
            dataclasses.replace(op, measure=MeasureSpace(np.full(size, h)))
    for scale in (2.0 * h, 0.5 * h, h * (1.0 + 1e-15)):
        with pytest.raises(OperatorError, match="uniform measure"):
            dataclasses.replace(op, form=SineTransform(lam, scale))
    for scale in (0.0, -h, np.inf, np.nan):
        with pytest.raises(OperatorError, match="finite spacing"):
            dataclasses.replace(op, form=SineTransform(lam, scale))
    # the untouched form passes
    assert dataclasses.replace(op, form=SineTransform(lam, h)).n == n


class _Skewed(SineTransform):
    """Coefficients twice and synthesis half the sine transform's: every
    round trip is exact, but the coefficients' energy is four times too
    large."""

    def coefficients(self, x, measure):
        return 2.0 * super().coefficients(x, measure)

    def synthesize(self, coeffs):
        return super().synthesize(0.5 * np.asarray(coeffs))


def test_sine_transform_gate_checks_the_round_trip_and_parseval(monkeypatch):
    op = build_dirichlet_laplacian_1d(SINE_MIN_N, 1.0)
    lam = op.form.eigenvalues
    with pytest.raises(OperatorError, match=r"orthonormal .*Parseval 3\.0e\+00"):
        dataclasses.replace(op, form=_Skewed(lam, 1.0))
    dst1 = operators._dst1
    for broken in (lambda z, s: 1.001 * dst1(z, s), lambda z, s: np.full_like(dst1(z, s), np.nan)):
        monkeypatch.setattr(operators, "_dst1", broken)
        with pytest.raises(OperatorError, match="orthonormal"):
            dataclasses.replace(op, form=SineTransform(lam, 1.0))
