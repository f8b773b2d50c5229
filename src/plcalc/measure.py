"""Weighted point measures, L^p norms and dense linear algebra.

A MeasureSpace is a finite set of points with strictly positive weights
w_i; it hosts every L^p norm in the package,

    ||x||_p = (sum_i w_i |x_i|^p)^(1/p),        ||x||_inf = max_i |x_i|.

Operators that are self-adjoint with respect to the weighted inner
product <x,y> = sum_i w_i x_i conj(y_i) are diagonalized by similarity
with W^(1/2): S = W^(1/2) A W^(-1/2) is Hermitian (real symmetric for a
real A, which then stays real), so a standard Hermitian eigensolver applies
and the back-transformed eigenvectors are orthonormal in the weighted inner
product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

# Tolerances are pinned here so property tests are reproducible.
SYMMETRY_RTOL = 1e-10      # relative self-adjointness defect allowed on input
PIVOT_RTOL = 1e-14         # LU pivot magnitude relative to matrix scale


class MeasureError(ValueError):
    """Invalid measure, dimension mismatch or out-of-range exponent."""


class LinAlgError(np.linalg.LinAlgError):
    """Numerical linear algebra failure (singularity, non-symmetry)."""


@dataclass(frozen=True)
class MeasureSpace:
    """Finite measure space: points with finite positive weights.

    ``points`` doubles as coordinates when the space discretizes an
    interval (Hermite grids); by default it is just the index set.
    """

    weights: np.ndarray
    points: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise MeasureError("weights must be a nonempty 1d array")
        if not np.all(np.isfinite(w)):
            raise MeasureError("weights must be finite" + nonfinite_note(w, "weights"))
        if not np.all(w > 0):
            raise MeasureError("all weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        pts = self.points
        if pts is None:
            pts = np.arange(w.size, dtype=float)
        else:
            pts = np.asarray(pts, dtype=float)
            if pts.shape != w.shape:
                raise MeasureError("points and weights must have equal length")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.weights.size

    @staticmethod
    def uniform(n: int) -> "MeasureSpace":
        """Unit weights."""
        if n < 1:
            raise MeasureError("n must be >= 1")
        return MeasureSpace(weights=np.ones(n))


def _check_vec(x, m: MeasureSpace) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim < 1 or x.shape[-1] != m.size:
        raise MeasureError(f"vector of length {x.shape} does not match measure of size {m.size}")
    return x


def lp_norm(x, p, m: MeasureSpace):
    """Weighted L^p norm of x over the measure space, p in [1, inf].

    A stack of vectors (... x n) gets one norm per row, as an array; a
    single vector gets a float.
    """
    x = _check_vec(x, m)
    if p == np.inf or p == "inf":
        out = np.max(np.abs(x), axis=-1)
    else:
        p = float(p)
        if p < 1:
            raise MeasureError(f"p must be >= 1 or inf, got {p}")
        a = np.abs(x)
        if p == 2.0:
            out = np.sqrt(np.sum(m.weights * a * a, axis=-1))
        else:
            out = np.sum(m.weights * a**p, axis=-1) ** (1.0 / p)
    return float(out) if x.ndim == 1 else out


def adjoint(b: np.ndarray) -> np.ndarray:
    """Conjugate transpose; a plain transposed view for a real array (no copy)."""
    return b.T.conj() if np.iscomplexobj(b) else b.T


def nonfinite_note(a, what: str) -> str:
    """'' if every entry of a is finite, else ': non-finite <what> at' and the
    indices of the first few, for the message of a failed check."""
    bad = np.argwhere(~np.isfinite(a))
    if not bad.size:
        return ""
    at = ", ".join(str(tuple(int(i) for i in b)) if b.size > 1 else str(int(b[0]))
                   for b in bad[:4])
    more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
    return f": non-finite {what} at {at}{more}"


def weighted_symmetric_eig(a, m: MeasureSpace):
    """Eigendecomposition of an operator self-adjoint wrt the weighted inner product.

    Returns (eigenvalues ascending, eigenvectors Q) with Q^H W Q = I and
    A = Q diag(lam) Q^H W.

    A real matrix stays real (real symmetric eigh, float64 Q); a complex
    one goes through the Hermitian solver.

    Raises LinAlgError if WA is not Hermitian to SYMMETRY_RTOL (relative)
    or if the eigensolver fails to converge.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    n = m.size
    if a.shape != (n, n):
        raise MeasureError(f"matrix shape {a.shape} does not match measure of size {n}")
    w = m.weights
    wa = w[:, None] * a
    with np.errstate(invalid="ignore"):    # inf - inf: the defect is NaN
        defect = np.linalg.norm(wa - adjoint(wa)) / max(np.linalg.norm(wa), 1e-300)
    if not (defect <= SYMMETRY_RTOL):      # a NaN defect fails too
        raise LinAlgError(
            f"matrix is not self-adjoint wrt the measure (relative defect {defect:.2e})"
            + nonfinite_note(a, "matrix entries")
        )
    sqw = np.sqrt(w)
    s = (sqw[:, None] * a) / sqw[None, :]
    s = 0.5 * (s + adjoint(s))
    try:
        lam, u = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LinAlgError(f"eigensolver failed to converge: {exc}") from exc
    q = u / sqw[:, None]
    return lam, q


def solve_complex(a, b) -> np.ndarray:
    """Solve a x = b by partial-pivot LU; rejects singular-to-tolerance matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise MeasureError(f"incompatible shapes {a.shape}, {b.shape}")
    import scipy.linalg   # imported here: the LU oracle is the package's only scipy user

    with warnings.catch_warnings():
        # exact singularity is reported through the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=True)
    pivots = np.abs(np.diag(lu))
    scale = max(np.max(np.abs(a)), 1e-300)
    if np.min(pivots) <= PIVOT_RTOL * scale:
        raise LinAlgError(
            f"matrix is singular to tolerance (min pivot {np.min(pivots):.2e}, scale {scale:.2e})"
        )
    return scipy.linalg.lu_solve((lu, piv), b)
