"""Weighted norms and the dense linear algebra substrate."""

import numpy as np
import pytest

from plcalc.measure import (
    LinAlgError,
    MeasureError,
    MeasureSpace,
    lp_norm,
    solve_complex,
    weighted_symmetric_eig,
)


def test_lp_norm_pythagorean():
    m = MeasureSpace(weights=np.ones(2))
    assert lp_norm(np.array([3.0, 4.0]), 2, m) == pytest.approx(5.0, abs=1e-14)


def test_lp_norm_normalized_measure_of_ones():
    for p in (1, 2, 3.5, np.inf):
        m = MeasureSpace(weights=np.full(7, 1.0 / 7))
        assert lp_norm(np.ones(7), p, m) == pytest.approx(1.0, abs=1e-14)


def test_measure_rejects_non_finite_weights_and_names_them():
    # inf > 0 holds, so the positivity check alone let [inf, 1] through and
    # every L^p norm over it came out inf
    with pytest.raises(MeasureError, match=r"weights must be finite: non-finite weights at 0$"):
        MeasureSpace(weights=[np.inf, 1.0])
    with pytest.raises(MeasureError, match=r"non-finite weights at 1, 3$"):
        MeasureSpace(weights=[1.0, np.nan, 2.0, -np.inf])
    assert MeasureSpace(weights=[1e300, 1e-300]).size == 2


def test_lp_norm_matches_bruteforce_loop():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 2.0, 13)
    m = MeasureSpace(weights=w)
    x = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    # independent oracle: plain python accumulation
    acc = 0.0
    for i in range(13):
        acc += w[i] * abs(x[i]) ** 2
    assert lp_norm(x, 2, m) == pytest.approx(np.sqrt(acc), rel=1e-13)


def test_lp_norm_rejects_bad_inputs():
    m = MeasureSpace.uniform(3)
    with pytest.raises(MeasureError):
        lp_norm(np.ones(4), 2, m)
    with pytest.raises(MeasureError):
        lp_norm(np.ones(3), 0.5, m)
    with pytest.raises(MeasureError, match="got nan"):
        lp_norm(np.ones(3), np.nan, m)
    with pytest.raises(MeasureError):
        MeasureSpace(weights=np.array([1.0, -1.0]))


@pytest.mark.parametrize("p", [1, 2, 4, np.inf])
def test_lp_norm_row_stack_matches_rows(p):
    rng = np.random.default_rng(3)
    m = MeasureSpace(weights=rng.uniform(0.1, 2.0, 9))
    xs = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    norms = lp_norm(xs, p, m)
    assert norms.shape == (6,)
    expected = [lp_norm(row, p, m) for row in xs]
    assert np.allclose(norms, expected, rtol=1e-15, atol=0)
    with pytest.raises(MeasureError):
        lp_norm(np.ones((6, 8)), p, m)


@pytest.mark.parametrize("seed", range(4))
def test_lp_norm_homogeneity_and_triangle(seed):
    rng = np.random.default_rng(seed)
    m = MeasureSpace(weights=rng.uniform(0.5, 1.5, 9))
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c = complex(rng.standard_normal(), rng.standard_normal())
    for p in (1, 2, 4, np.inf):
        assert lp_norm(c * x, p, m) == pytest.approx(abs(c) * lp_norm(x, p, m), rel=1e-12)
        assert lp_norm(x + y, p, m) <= lp_norm(x, p, m) + lp_norm(y, p, m) + 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_lp_monotone_in_p_on_probability_measure(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, 11)
    m = MeasureSpace(weights=w / w.sum())
    x = rng.standard_normal(11)
    vals = [lp_norm(x, p, m) for p in (1, 1.5, 2, 3, 6, np.inf)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_eig_diagonal():
    m = MeasureSpace.uniform(3)
    lam, q = weighted_symmetric_eig(np.diag([3.0, 1.0, 2.0]), m)
    assert np.allclose(lam, [1.0, 2.0, 3.0], atol=1e-12)


def test_eig_2x2_characteristic_polynomial():
    # [[2,-1],[-1,2]] has eigenvalues 1 and 3 (roots of (2-l)^2 - 1)
    m = MeasureSpace.uniform(2)
    lam, _ = weighted_symmetric_eig(np.array([[2.0, -1.0], [-1.0, 2.0]]), m)
    assert np.allclose(lam, [1.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_eig_weighted_orthonormality_and_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = 8
    w = rng.uniform(0.5, 2.0, n)
    m = MeasureSpace(weights=w)
    # a self-adjoint operator wrt w: A = W^-1 H with H hermitian
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = h + h.conj().T
    a = h / w[:, None]
    lam, q = weighted_symmetric_eig(a, m)
    gram = q.conj().T @ (w[:, None] * q)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    recon = (q * lam[None, :]) @ (q.conj().T * w[None, :])
    assert np.linalg.norm(recon - a) <= 1e-9 * np.linalg.norm(a)
    # round trip on random vectors
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ya = a @ x
    yb = q @ (lam * (q.conj().T @ (w * x)))
    assert np.linalg.norm(ya - yb) <= 1e-9 * np.linalg.norm(ya)


def test_eig_rejects_nonsymmetric():
    m = MeasureSpace.uniform(2)
    with pytest.raises(LinAlgError):
        weighted_symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), m)


def test_eig_rejects_non_finite_matrix():
    # a NaN or inf entry makes the symmetry defect NaN, which fails the gate
    # instead of reaching the eigensolver
    m = MeasureSpace.uniform(3)
    for bad in (np.nan, np.inf):
        a = np.eye(3)
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(LinAlgError, match=r"non-finite matrix entries at \(0, 2\), \(2, 0\)$"):
            weighted_symmetric_eig(a, m)


def test_solve_identity_and_diagonal():
    b = np.array([2.0, 4.0], dtype=complex)
    assert np.allclose(solve_complex(np.eye(2), b), b)
    assert np.allclose(solve_complex(np.diag([2.0, 4.0]), b), [1.0, 1.0])


def test_solve_residual_on_random_16x16():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)) + 8 * np.eye(16)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x = solve_complex(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_rejects_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(LinAlgError):
        solve_complex(a, np.ones(2, dtype=complex))


def test_eig_real_input_stays_real():
    rng = np.random.default_rng(5)
    n = 10
    w = rng.uniform(0.5, 2.0, n)
    m = MeasureSpace(weights=w)
    h = rng.standard_normal((n, n))
    a = (h + h.T) / w[:, None]
    lam, q = weighted_symmetric_eig(a, m)
    assert q.dtype == np.float64 and lam.dtype == np.float64
    assert np.max(np.abs(q.T @ (w[:, None] * q) - np.eye(n))) < 1e-10
    recon = (q * lam[None, :]) @ (q.T * w[None, :])
    assert np.linalg.norm(recon - a) <= 1e-9 * np.linalg.norm(a)
    # the same matrix through the Hermitian solver: same spectrum
    lam_c, q_c = weighted_symmetric_eig(a.astype(complex), m)
    assert q_c.dtype == complex
    np.testing.assert_allclose(lam, lam_c, rtol=0, atol=1e-12 * np.max(np.abs(lam)))
