"""Finite-dimensional sectorial model operators.

An operator is its diagonal form, a measure space (hosting the L^p norms)
and a construction echo.  Everything else is read off the spectrum: the
kernel mask, injectivity, whether the spectrum is bisectorial (double
sector), the sector angle of the nonzero spectrum, the spectral bounds
(lambda_min over the nonzero spectrum, lambda_max) and whether it lies on
the half-line [0, inf).  Four diagonal forms:

  SpectralSelfAdjoint   eigenvalues >= 0 ascending with eigenvectors
                        orthonormal in the weighted inner product; the
                        eigenvector matrix may be rectangular (n x K),
                        in which case the operator lives on the K-mode
                        span inside the ambient grid space (Hermite).
  FoldedSelfAdjoint     the same for a basis whose vectors are even or odd
                        under the reflection R: i -> n-1-i, held as two
                        half-size blocks.
  SineTransform         the Dirichlet sine basis, never stored: every
                        transform is a DST-I, one FFT.
  SimilarityDiagonal    A = S diag(lambda) S^{-1} with controlled cond(S);
                        complex spectrum, used for non-normal and
                        double-sector examples.

A form is a small protocol: ``eigenvalues``, ``orthonormal``, and the
methods ``check`` (the basis gate, run once by the operator),
``coefficients``, ``synthesize``, ``matrix``, ``multiplier_norm`` and
``conditioning``; the operator forwards to them and branches on no form
type.

The Dirichlet Laplacian on n points takes one of three forms by size:
the stored basis below FOLD_MIN_N points and at an odd n below
SINE_MIN_N, the folded form at an even n from FOLD_MIN_N on, and the sine
transform from SINE_MIN_N points on at any parity.  The fold stays at 256
points because the FFT of length 2(n+1) = 514 = 2 x 257 falls back to
Bluestein's algorithm for the prime 257, and a one-vector transform then
takes about four times as long as the folded product.  A Schroedinger
operator -Delta + V is folded at an even n from FOLD_MIN_N on when V is
exactly mirror-symmetric (v == v[::-1]), with no upper size: its two half
blocks are two half-size eigensolves in place of one whole one.  Any other
Schroedinger operator (odd n, fewer points, an asymmetric V) keeps the
stored basis of one dense eigensolve.

The folded form, for an even number n of points.  With T the top n/2
points, B the bottom n/2 and R reversing them, an even vector is (v, R v)
and an odd one (v, -R v).  The fold x -> (x_T + R x_B, x_T - R x_B) maps
the coefficient transform and the synthesis to one half-size product per
block, and the two blocks are one 2 x n/2 x n/2 array, so each transform
is one batched product.  On a mirror-symmetric measure the inner product
of an even u and an odd v is sum_T w u_T v_T - sum_T w u_T v_T = 0
exactly, and that of two even ones is sum_T 2 w u_T v_T.  So the Gram
matrix of the implied n x n basis is block-diagonal, each block being the
Gram matrix of a stored block in the folded weights 2 w: checking the two
blocks at ORTHO_TOL is the full check on the same basis, at 2 (n/2)^3
flops instead of n^3.

The sine transform.  Mode k of the Dirichlet Laplacian with spacing h is
q_k(i) = sqrt(2/((n+1) h)) sin(i k pi/(n+1)), so the coefficients of x
are sqrt(2h/(n+1)) times its DST-I, y_k = sum_i x_i sin(i k pi/(n+1)),
and the synthesis of c is sqrt(2/((n+1) h)) times the DST-I of c.  The
DST-I is read off one real FFT of the odd extension (0, x, 0, -R x) of
length 2(n+1), whose rows 1..n are -2i y; an n x m stack is transformed
along axis 0 in one call, on the interleaved real view of the complex
operand (as basis_matmul), so a real operand gives imaginary parts that
are exactly zero.  With no stored basis there is no Gram matrix to check;
the gate checks what orthonormality rests on instead: n points, a measure
exactly uniform with weight h, a finite h > 0, and one round trip of a
fixed probe vector that keeps its Parseval identity, both at ORTHO_TOL.

The diagonal form is private to this module.  Every other layer asks the
operator through coefficients and synthesize, the eigenvalues and five
members: ``nonzero`` (the kernel mask, the package's one rule for which
eigenvalues are zero), ``kernel_component`` (P x, the projection onto the
kernel along the closed range), ``multiplier_norm`` (the exact L^2 norm of a
diagonal multiplier), ``orthonormal`` (whether Parseval's identity holds,
which norms reads to skip synthesis at p = 2) and ``basis_conditioning``.
Resolvents and every functional calculus go through the diagonal form;
resolvent_apply_lu solves on the assembled matrix as an independent oracle.

Every builder's operator is real, so a stored basis (eigenvectors, or S
and S^{-1}) is float64; only the eigenvalues and the operands are
complex.  A coefficient transform or a synthesis with a real basis is one
real GEMM on the interleaved real view of the complex operand (basis_matmul),
a quarter of the flops of the complex product; a complex basis, which the
forms still accept, takes the plain complex product.

Builders: 1d Dirichlet Laplacian (closed-form spectrum), weighted graph
Laplacian I - P (self-adjoint wrt the vertex measure mu(x) = sum_y
sigma(x,y), kernel = constants), 1-D Hermite expansion (eigenvalues 1 + 2n
on discretized Hermite functions), Schroedinger -Delta + V, and a synthetic
non-normal operator with prescribed spectrum and conditioning.

For an operator that is not injective, X = N(A) + cl R(A), and the
projection P onto the kernel is the spectral projection of the zero
eigenvalues, so it comes from the same diagonal form; all downstream block
machinery only ever evaluates windows that vanish at 0, so the injective
part needs no special casing there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure import (MeasureError, MeasureSpace, adjoint, nonfinite_note, solve_complex,
                      weighted_symmetric_eig)

ORTHO_TOL = 1e-10
# ||S S^-1 - I||_F of a similarity basis, per dimension: eps ||S||_F ||S^-1||_F
# (a float64 inverse's rounding), clipped to [SIMILARITY_TOL, SIMILARITY_TOL_MAX]
SIMILARITY_TOL = 1e-10
SIMILARITY_TOL_MAX = 1e-8
RESOLVENT_MARGIN = 1e-12   # reject lambda within this times lambda_max of spectrum
ZERO_EIG_TOL = 1e-12       # relative threshold deciding kernel membership
# Size from which a Dirichlet basis, or a Schroedinger basis with a
# mirror-symmetric V, is folded (even sizes only; an odd size keeps one
# block).  The fold adds a few vector operations to every transform.  At
# 256 points they cost a one-vector transform about 15% of its unfolded
# time while the build takes half as long; at 32 points they double that
# transform's time (one BLAS thread).
FOLD_MIN_N = 256
# Dirichlet size from which the basis is a sine transform, at any parity.
# On a 2-vCPU x86_64 host (numpy 2.4, one BLAS thread) a one-vector
# coefficient transform takes 26 us against 34 us folded at 512 points and
# 55 us against 245 us at 1024, and a build 0.17 ms against 2.9 ms and
# 0.28 ms against 16 ms.  At 256 points the transform would take 60 us
# against 13 us folded (see the module docstring).
SINE_MIN_N = 512
# The largest array, in float64 entries (128 MB), that an operator spec may
# ask for: n^2 for the dense kinds, grid n times K for hermite, and n for
# dirichlet1d, whose dense basis below SINE_MIN_N points is small anyway.
MAX_ENTRIES = 2**24


class OperatorError(ValueError):
    pass


class GraphError(OperatorError):
    """Invalid weight matrix or disconnected graph."""


class SpecError(KeyError):
    """A malformed JSON spec; as a KeyError the CLI reports it as a
    malformed config (exit 2).  The message is the first argument."""

    def __str__(self):
        return self.args[0]


class SpecKeyError(SpecError):
    """A JSON spec carries keys that nothing reads.

    A misspelled key must not leave its setting at the default, so the spec
    is rejected.
    """

    def __init__(self, keys, where: str):
        super().__init__(f"unknown key(s) {', '.join(map(repr, sorted(keys)))} in {where}")


class SpecValueError(SpecError):
    """A JSON spec value that does not read as what its key needs."""

    def __init__(self, key: str, where: str, reason):
        super().__init__(f"{key!r} in {where}: {reason}")


class SpecReader:
    """A JSON object, read one key at a time.

    With ``kinds`` its "kind" (``kind``) must be one of them, and its keys
    are read in "<kind> <where>".  A call takes one key: convert(value)
    through spec_value, the default in place of an absent key (KeyError
    without one), the value as given without convert.  done() raises
    SpecKeyError for every key no call took, so a spec accepts exactly the
    keys its reader reads; a reader calls it before it builds.
    """

    def __init__(self, spec: dict, where: str, kinds=None):
        self.kind = None
        if kinds is None and not isinstance(spec, dict):
            raise TypeError(f"{where} must be an object, got {spec!r}")
        if kinds is not None:
            if not isinstance(spec, dict) or "kind" not in spec:
                raise SpecValueError("kind", where,
                                     f"expected an object with a 'kind', got {spec!r}")
            self.kind = spec["kind"]
            if not isinstance(self.kind, str) or self.kind not in kinds:
                raise SpecValueError("kind", where, f"unknown {where.removesuffix(' spec')} "
                                                    f"kind {self.kind!r}")
            where = f"{self.kind} {where}"
        self.spec, self.where = spec, where
        self.unread = set(spec) - {"kind"} if kinds is not None else set(spec)

    def __call__(self, key: str, convert=None, *default):
        self.unread.discard(key)
        value = self.spec.get(key, *default) if default else self.spec[key]
        return value if convert is None else spec_value(value, convert, key, self.where)

    def done(self) -> None:
        if self.unread:
            raise SpecKeyError(self.unread, self.where)


def spec_value(value, convert, key: str, where: str):
    """convert(value), the value of ``key`` in a spec; a value that convert
    refuses (TypeError or ValueError, or OverflowError for an integer too
    large for a float) raises SpecValueError naming the key."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecValueError(key, where, exc) from None


def integer(value) -> int:
    """A spec value that names an integer exactly (8, 8.0 or "8"), as int.

    The converter spec_value takes for every integer key: int() alone
    would read 8.7 as 8 and True as 1, so a non-integral number (inf and
    nan included) raises ValueError and a boolean TypeError.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def non_negative(value) -> int:
    """integer(value), refused below 0: the converter of every seed key
    (numpy's generators take no negative seed)."""
    value = integer(value)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def finite(value, number=float):
    """number(value) (float, or complex), refused unless finite: the
    converter of every scalar float key.  A JSON number beyond the float
    range, such as 1e999, decodes to +-inf, which no comparison refuses."""
    value = number(value)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def exponent(value):
    """An exponent p or q of a spec as given (a finite number, or "inf" for
    infinity, which the reports echo as the string), once it reads as a
    float >= 1: the converter of every pnorm and q key."""
    if value != "inf" and not finite(value) >= 1.0:
        raise ValueError(f"must be >= 1 or inf, got {value!r}")
    return value


def array_size(value, per: int = 1) -> int:
    """integer(value) as a size: the converter of every key that sizes an
    array of value * per float64 entries, refused below 1 and above
    MAX_ENTRIES entries."""
    value = integer(value)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    if value * per > MAX_ENTRIES:
        raise ValueError(f"{value * per} array entries exceed the cap {MAX_ENTRIES}")
    return value


def basis_matmul(b: np.ndarray, z) -> np.ndarray:
    """b @ z for a complex operand z (a K-vector or a K x m stack).

    A real b multiplies the interleaved view z.view(float), K x 2m, in one
    real GEMM whose n x 2m result is read back as n x m complex; a complex
    b takes the plain complex product.
    """
    z = np.asarray(z, dtype=complex)
    if np.iscomplexobj(b):
        return b @ z
    zr = np.ascontiguousarray(z).view(float)
    if z.ndim == 1:
        return (b @ zr.reshape(-1, 2)).view(complex)[:, 0]
    return (b @ zr).view(complex)


def _gram_defect(q: np.ndarray, w: np.ndarray):
    """max |Q^H W Q - I|, NaN or inf when an entry of Q or w is not finite.

    Q^H W Q is one product g^H g of g = W^(1/2) Q (a syrk for real Q), minus
    I in place; g is freed first to keep the peak low, and the maximum is
    read without allocating the moduli.
    """
    g = np.sqrt(w)[:, None] * q
    gram = adjoint(g) @ g
    del g
    gram.flat[::gram.shape[0] + 1] -= 1.0
    if np.iscomplexobj(gram):
        gram = np.abs(gram)
    return np.maximum(gram.max(), -gram.min())


class _OrthonormalBasis:
    """What the self-adjoint forms share: on an orthonormal basis a diagonal
    multiplier's L^2 norm is its sup, and the basis has condition number 1.
    A form that stores no n x K basis assembles its matrix from the basis
    its synthesis implies."""

    orthonormal = True

    def multiplier_norm(self, values, measure):
        return np.max(np.abs(values), axis=-1)

    def conditioning(self) -> float:
        return 1.0

    def matrix(self, measure: MeasureSpace) -> np.ndarray:
        q = self.synthesize(np.eye(self.eigenvalues.size)).real
        return SpectralSelfAdjoint(self.eigenvalues, q).matrix(measure)


@dataclass
class SpectralSelfAdjoint(_OrthonormalBasis):
    eigenvalues: np.ndarray        # real, >= 0, ascending, length K
    eigenvectors: np.ndarray       # n x K, orthonormal wrt the measure

    def check(self, measure: MeasureSpace) -> None:
        # the gates read "not (defect <= tol)", so a NaN defect fails them
        if not (_gram_defect(self.eigenvectors, measure.weights) <= ORTHO_TOL):
            raise OperatorError("eigenvectors are not orthonormal wrt the measure"
                                + nonfinite_note(self.eigenvectors, "eigenvector entries"))

    def matrix(self, measure: MeasureSpace) -> np.ndarray:
        q, lam = self.eigenvectors, self.eigenvalues
        return (q * lam[None, :]) @ (adjoint(q) * measure.weights[None, :])

    def coefficients(self, x: np.ndarray, measure: MeasureSpace) -> np.ndarray:
        w = measure.weights
        return basis_matmul(adjoint(self.eigenvectors), (w if x.ndim == 1 else w[:, None]) * x)

    def synthesize(self, coeffs) -> np.ndarray:
        return basis_matmul(self.eigenvectors, coeffs)


@dataclass
class FoldedSelfAdjoint(_OrthonormalBasis):
    """A self-adjoint form on an even number n of points whose eigenvectors
    are even or odd under the reflection R: i -> n-1-i, stored as the top
    halves of the modes (the fold and its Gram check are described in the
    module docstring).

    ``blocks`` is one real 2 x n/2 x n/2 array: block 0 holds v of each even
    mode (v, R v), block 1 v of each odd mode (v, -R v).  Eigenvalue 2r
    belongs to column r of block 0, eigenvalue 2r+1 to column r of block 1.
    The measure must be mirror-symmetric.
    """

    eigenvalues: np.ndarray        # real, >= 0, length n, even and odd modes interleaved
    blocks: np.ndarray             # 2 x n/2 x n/2: (even, odd)

    def check(self, measure: MeasureSpace) -> None:
        w = measure.weights
        m = w.size // 2
        if (w.size % 2 or not isinstance(self.blocks, np.ndarray)
                or self.blocks.shape != (2, m, m)):
            raise OperatorError("folded blocks must be one 2 x n/2 x n/2 array, "
                                "for an even number n of points")
        if not np.array_equal(w, w[::-1]):
            raise OperatorError("a folded form needs a mirror-symmetric measure")
        even, odd = self.blocks
        wf = 2.0 * w[:m]
        # a NaN defect of either block fails the gate
        if not (_gram_defect(even, wf) <= ORTHO_TOL and _gram_defect(odd, wf) <= ORTHO_TOL):
            raise OperatorError("eigenvectors are not orthonormal wrt the measure"
                                + nonfinite_note(even, "entries of the even block")
                                + nonfinite_note(odd, "entries of the odd block"))

    # Both transforms fold in complex arithmetic and multiply the blocks into
    # the interleaved real view of the folded operand (as basis_matmul
    # does), n x 2m for an n x m stack, where the even half lies above the
    # odd half; modes 2r and 2r+1 are row r of the two halves.

    def coefficients(self, x: np.ndarray, measure: MeasureSpace) -> np.ndarray:
        w = measure.weights
        m = x.shape[0] // 2
        wx = (w if x.ndim == 1 else w[:, None]) * x
        top, bottom = wx[:m], wx[::-1][:m]
        f = np.concatenate((top + bottom, top - bottom)).view(float).reshape(2, m, -1)
        c = np.matmul(self.blocks.transpose(0, 2, 1), f)
        c = c.transpose(1, 0, 2).reshape(2 * m, -1).view(complex)
        return c[:, 0] if x.ndim == 1 else c

    def synthesize(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        z = np.ascontiguousarray(coeffs).view(float).reshape(coeffs.shape[0], -1)
        n, m = z.shape[0], z.shape[0] // 2
        y = np.matmul(self.blocks, z.reshape(m, 2, -1).transpose(1, 0, 2)).reshape(n, -1)
        y = y.view(complex)
        if coeffs.ndim == 1:
            y = y[:, 0]
        even, odd = y[:m], y[m:]
        return np.concatenate((even + odd, (even - odd)[::-1]))


@dataclass
class SineTransform(_OrthonormalBasis):
    """The Dirichlet eigenbasis on n points with spacing h, applied as a
    DST-I and never stored (the transform and its gate are described in
    the module docstring).  Eigenvalue k - 1 belongs to the mode
    sin(i k pi/(n+1)), k = 1..n; the measure must be h at every point."""

    eigenvalues: np.ndarray        # real, length n, mode k = 1..n in order
    h: float                       # grid spacing, the weight of every point

    def check(self, measure: MeasureSpace) -> None:
        n, h, w = self.eigenvalues.size, self.h, measure.weights
        if w.size != n:
            raise OperatorError(f"a sine transform of {n} modes needs {n} points, "
                                f"not {w.size}")
        if not 0.0 < h < np.inf:
            raise OperatorError(f"a sine transform needs a finite spacing h > 0, not {h!r}")
        if not np.all(w == h):
            raise OperatorError(f"a sine transform needs the uniform measure of weight h = {h!r}")
        rng = np.random.default_rng(0)
        probe = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = self.coefficients(probe, measure)
        energy = h * np.vdot(probe, probe).real
        round_trip = np.max(np.abs(self.synthesize(c) - probe)) / np.max(np.abs(probe))
        parseval = abs(np.vdot(c, c).real - energy) / energy
        # a NaN defect fails the gate
        if not (round_trip <= ORTHO_TOL and parseval <= ORTHO_TOL):
            raise OperatorError("sine transform is not orthonormal wrt the measure "
                                f"(round trip {round_trip:.1e}, Parseval {parseval:.1e})")

    def coefficients(self, x: np.ndarray, measure: MeasureSpace) -> np.ndarray:
        n = x.shape[0]
        return _dst1(x, np.sqrt(2.0 * self.h / (n + 1)))

    def synthesize(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        n = coeffs.shape[0]
        return _dst1(coeffs, np.sqrt(2.0 / ((n + 1) * self.h)))


def _dst1(z: np.ndarray, scale: float) -> np.ndarray:
    """scale times the DST-I sum_i z_i sin(i k pi/(n+1)), k = 1..n, of a
    complex n-vector or of each column of an n x m stack.

    The interleaved real view of z, n x 2m, is extended to the odd
    (0, z, 0, -R z) of length 2(n+1) along axis 0, and one real FFT gives
    -2i times the DST-I in its rows 1..n.
    """
    n = z.shape[0]
    zr = np.ascontiguousarray(z).view(float).reshape(n, -1)
    odd = np.empty((2 * (n + 1), zr.shape[1]))
    odd[0] = odd[n + 1] = 0.0
    odd[1:n + 1] = zr
    np.negative(zr[::-1], out=odd[n + 2:])
    y = (np.fft.rfft(odd, axis=0)[1:n + 1].imag * (-0.5 * scale)).view(complex)
    return y[:, 0] if z.ndim == 1 else y


@dataclass
class SimilarityDiagonal:
    s: np.ndarray
    s_inv: np.ndarray
    eigenvalues: np.ndarray        # complex, length n

    orthonormal = False

    def check(self, measure: MeasureSpace) -> None:
        """||S S^-1 - I||_F <= n eps ||S||_F ||S^-1||_F, clipped to
        [SIMILARITY_TOL n, SIMILARITY_TOL_MAX n].

        A float64 inverse leaves a residual of about eps cond(S), so the
        bound grows with S's conditioning, from two O(n^2) norms and no SVD.
        The floor keeps the gate tight on a well-conditioned S; the ceiling
        refuses an inverse whose round trip loses more than that, from
        about cond(S) = 1e10 (n = 8 to 96).  A non-finite entry refuses."""
        s, si = self.s, self.s_inv
        n = s.shape[0]
        scale = np.finfo(float).eps * np.linalg.norm(s) * np.linalg.norm(si)
        bound = n * min(max(SIMILARITY_TOL, scale), SIMILARITY_TOL_MAX)
        if not (np.linalg.norm(s @ si - np.eye(n)) <= bound):
            note = nonfinite_note(s, "entries of S") + nonfinite_note(si, "entries of S^-1")
            if not note:
                cond = np.linalg.norm(s, 2) * np.linalg.norm(si, 2)
                note = f": cond(S) = ||S||_2 ||S^-1||_2 = {cond:.3g}"
            raise OperatorError("similarity inverse fails ||S S^-1 - I|| tolerance" + note)

    def matrix(self, measure: MeasureSpace) -> np.ndarray:
        return (self.s * self.eigenvalues[None, :]) @ self.s_inv

    def coefficients(self, x: np.ndarray, measure: MeasureSpace) -> np.ndarray:
        return basis_matmul(self.s_inv, x)

    def synthesize(self, coeffs) -> np.ndarray:
        return basis_matmul(self.s, coeffs)

    def multiplier_norm(self, values, measure):
        """The 2-norm of W^(1/2) S diag(values) S^-1 W^(-1/2), per row of a
        stack of shape (m, K)."""
        sqw = np.sqrt(measure.weights)
        s, s_inv = sqw[:, None] * self.s, self.s_inv / sqw[None, :]
        norms = [np.linalg.norm((s * row) @ s_inv, 2) for row in np.atleast_2d(values)]
        return np.array(norms) if values.ndim > 1 else norms[0]

    def conditioning(self) -> float:
        """||S|| ||S^-1||, two SVDs."""
        return float(np.linalg.norm(self.s, 2) * np.linalg.norm(self.s_inv, 2))


@dataclass
class ModelOperator:
    form: SpectralSelfAdjoint | FoldedSelfAdjoint | SineTransform | SimilarityDiagonal
    measure: MeasureSpace
    spec: dict = field(default_factory=dict)   # construction echo for reports
    # read off the spectrum: per eigenvalue, whether it lies outside the
    # kernel (the package's one kernel rule); whether the kernel is trivial;
    # whether some nonzero eigenvalue has a negative real part (a double
    # sector around R); the largest |arg lambda| over the nonzero spectrum,
    # folded to the nearer half-axis when bisectorial; the moduli bounds;
    # why half-line symbols cannot be evaluated on the spectrum: None when
    # it lies in [0, inf) up to ZERO_EIG_TOL lambda_max, else "complex" or
    # "negative"
    nonzero: np.ndarray = field(init=False, repr=False)
    injective: bool = field(init=False)
    bisectorial: bool = field(init=False)
    sector_angle_hint: float = field(init=False)
    lambda_min_positive: float = field(init=False)
    lambda_max: float = field(init=False)
    half_line_fault: str | None = field(init=False)
    _kappa: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = self.eigenvalues_or_none()
        if not np.all(np.isfinite(lam)):
            raise OperatorError("operator spectrum is not finite"
                                + nonfinite_note(lam, "eigenvalues"))
        mod = np.abs(lam)
        self.nonzero = mod > ZERO_EIG_TOL * max(np.max(mod), 1e-300)
        if not np.any(self.nonzero):
            raise OperatorError("operator has no nonzero spectrum")
        self.injective = bool(np.all(self.nonzero))
        self.lambda_min_positive = float(np.min(mod[self.nonzero]))
        self.lambda_max = float(np.max(mod))
        lam_nz = lam[self.nonzero]
        self.bisectorial = bool(np.any(np.real(lam_nz) < 0))
        ang = np.abs(np.angle(lam_nz))
        if self.bisectorial:
            ang = np.minimum(ang, np.pi - ang)
        self.sector_angle_hint = float(np.max(ang))
        if self.sector_angle_hint >= np.pi / 2:
            raise OperatorError("eigenvalues must lie strictly inside the (double) sector")
        tol = ZERO_EIG_TOL * self.lambda_max
        self.half_line_fault = ("complex" if np.max(np.abs(lam.imag)) > tol
                                else "negative" if np.min(lam.real) < -tol else None)
        self.form.check(self.measure)

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.measure.size

    def eigenvalues_or_none(self):
        """The eigenvalues as a complex array (every form is diagonal)."""
        return np.asarray(self.form.eigenvalues, dtype=complex)

    def matrix(self) -> np.ndarray:
        """Assemble the dense matrix of A."""
        return self.form.matrix(self.measure)

    def coefficients(self, x) -> np.ndarray:
        """Expansion coefficients of x in the operator's eigenbasis; an n x m
        stack (one vector a column) gives K x m."""
        return self.form.coefficients(np.asarray(x, dtype=complex), self.measure)

    def synthesize(self, coeffs) -> np.ndarray:
        """Sum of coefficients times eigenvectors; a K x m stack gives n x m."""
        return self.form.synthesize(coeffs)

    def apply(self, x) -> np.ndarray:
        return self.synthesize(self.eigenvalues_or_none() * self.coefficients(x))

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        """I.i.d. complex Gaussian spectral content (span of the modes)."""
        k = self.eigenvalues_or_none().size
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return self.synthesize(c)

    def kernel_dim(self) -> int:
        return int(np.sum(~self.nonzero))

    def kernel_component(self, x) -> np.ndarray:
        """P x, P the projection onto N(A) along cl R(A): the kernel
        coefficients of x synthesized, and zero for an injective operator,
        so that x - P x is exactly x there (off-span content included).
        An n x m stack, one vector a column, gives the n x m projections."""
        x = np.asarray(x, dtype=complex)
        if self.injective:
            return np.zeros_like(x)
        kernel = ~self.nonzero if x.ndim == 1 else ~self.nonzero[:, None]
        return self.synthesize(np.where(kernel, self.coefficients(x), 0.0))

    def multiplier_norm(self, values):
        """Exact L^2(measure) operator norm of sum_k values[k] <., e_k> e_k.

        max_k |values[k]| for an orthonormal eigenbasis, otherwise the
        2-norm of W^(1/2) S diag(values) S^-1 W^(-1/2).  A stack of shape
        (m, K), one multiplier per row, gives the m norms as an array.
        """
        return self.form.multiplier_norm(np.asarray(values), self.measure)

    @property
    def orthonormal(self) -> bool:
        """Whether the eigenbasis is orthonormal in L^2(measure), so that
        Parseval's identity holds for every diagonal multiplier."""
        return self.form.orthonormal

    def basis_conditioning(self) -> float:
        """cond_2 of the eigenbasis: ||S|| ||S^-1||, or 1 if orthonormal.

        The two SVDs run on the first call only; later calls return the
        same float.
        """
        if self._kappa is None:
            self._kappa = self.form.conditioning()
        return self._kappa


# -- builders ----------------------------------------------------------------

def build_dirichlet_laplacian_1d(n: int, h: float) -> ModelOperator:
    """Tridiagonal (2,-1,-1)/h^2 with closed-form spectrum.

    Eigenvalues (2 - 2 cos(k pi/(n+1)))/h^2 and sine eigenvectors,
    orthonormal wrt the grid measure w_i = h.  From SINE_MIN_N points on
    the basis is not stored: the form is a sine transform.  Below that,
    mode k is even under the reflection for odd k and odd for even k, so at
    an even n from FOLD_MIN_N on the form is folded and only the top half
    of each mode is stored.
    """
    if n < 1 or not 0 < h < np.inf:
        raise OperatorError("need n >= 1 and a finite h > 0")
    k = np.arange(1, n + 1)
    # an h whose 1/h^2 is not finite leaves a non-finite spectrum, which
    # the operator names and refuses before it reads the basis
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2
        scale = np.sqrt(2.0 / ((n + 1) * h))
    measure = MeasureSpace(weights=np.full(n, h), points=k * h)
    spec = {"kind": "dirichlet1d", "n": n, "h": h}
    if n >= SINE_MIN_N:
        return ModelOperator(SineTransform(lam, float(h)), measure, spec)
    # sin(i k pi/(n+1)) depends on i k mod 2(n+1) only: the basis is gathered
    # from one table of 2(n+1) scaled sines by an exact integer reduction; the
    # index arrays are freed before the operator checks its Gram matrices
    period = 2 * (n + 1)
    table = np.sin(np.arange(period) * np.pi / (n + 1)) * scale
    if n < FOLD_MIN_N or n % 2:
        ik = np.outer(k, k)
        ik %= period
        q = table[ik]
        del ik
        return ModelOperator(SpectralSelfAdjoint(lam, q), measure, spec)
    # rows i <= n/2 of the odd-k and of the even-k modes, one 2 x n/2 x n/2 array
    kk = k.astype(np.int32 if n * n < 2**31 else np.int64)
    ik = np.multiply(kk.reshape(-1, 2).T[:, None, :], kk[:n // 2, None], order="C")
    ik %= period
    blocks = table[ik]
    del ik
    return ModelOperator(FoldedSelfAdjoint(lam, blocks), measure, spec)


def build_graph_laplacian(sigma) -> ModelOperator:
    """Graph Laplacian A = I - P for a symmetric weight sigma with loops.

    mu(x) = sum_y sigma(x,y), p(x,y) = sigma(x,y)/(mu(x) mu(y)) and
    P f(x) = sum_y p(x,y) f(y) mu(y).  A is self-adjoint wrt mu, has
    eigenvalue 0 on the constants (P is mu-stochastic); the projection
    onto the kernel, the mu-weighted mean, is its kernel_component.
    Raises GraphError for an asymmetric weight, nonpositive loops, or a
    disconnected graph (eigenvalue 0 of multiplicity > 1).
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    if sigma.shape != (n, n):
        raise GraphError("sigma must be square")
    if np.any(sigma < 0):
        raise GraphError("sigma must be nonnegative")
    if not np.allclose(sigma, sigma.T, rtol=0, atol=1e-12 * max(np.max(sigma), 1e-300)):
        raise GraphError("sigma must be symmetric")
    if np.any(np.diag(sigma) <= 0):
        raise GraphError("sigma(x,x) must be positive")
    mu = sigma.sum(axis=1)
    m = MeasureSpace(weights=mu)
    a = np.eye(n) - sigma / mu[:, None]
    lam, q = weighted_symmetric_eig(a, m)
    lam = np.maximum(lam, 0.0) if lam.min() > -1e-12 else lam
    zero_mult = int(np.sum(np.abs(lam) <= 1e-10 * max(np.max(np.abs(lam)), 1.0)))
    if zero_mult != 1:
        raise GraphError(f"graph is disconnected (kernel multiplicity {zero_mult})")
    order = np.argsort(lam)
    lam, q = lam[order], q[:, order]
    lam[0] = 0.0
    return ModelOperator(
        form=SpectralSelfAdjoint(lam, q),
        measure=m,
        spec={"kind": "graph", "sigma": sigma.tolist()},
    )


def hermite_functions(num: int, x: np.ndarray) -> np.ndarray:
    """First ``num`` L^2-normalized Hermite functions on the points x.

    Stable three-term recurrence
        h_0 = pi^(-1/4) e^(-x^2/2),  h_1 = sqrt(2) x h_0,
        h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1}.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((num, x.size))
    h0 = np.pi**-0.25 * np.exp(-0.5 * x**2)
    out[0] = h0
    if num > 1:
        out[1] = np.sqrt(2.0) * x * h0
    for n in range(1, num - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


HERMITE_GRAM_TOL = 1e-6   # largest accepted Gram defect of the sampled Hermite functions


def build_hermite_operator(d: int, num_modes: int, grid: MeasureSpace) -> ModelOperator:
    """The 1-D Hermite operator -d^2/dx^2 + x^2: eigenvalues 1, 3, ..., 2K-1
    on discretized Hermite functions.

    d is the dimension, and only d = 1 is built: the d-dimensional operator
    has eigenvalue d + 2k with multiplicity binomial(k + d - 1, d - 1), not
    the 1-D spectrum shifted by d - 1, so any other d raises OperatorError.

    The grid must be wide and fine enough that the discretized Hermite
    functions are orthonormal wrt the grid weights to HERMITE_GRAM_TOL; they
    are then re-orthonormalized in the weighted inner product so the
    spectral form is exact: the Gram matrix G = V^T W V that the defect
    check forms is R^T R for its Cholesky factor R, upper triangular with
    diag(R) > 0 (the R that Gram-Schmidt computes), and Q = V R^-1 is real.
    """
    if d != 1:
        raise OperatorError(f"hermite dimension d = {d} is not built: only d = 1")
    if num_modes < 1:
        raise OperatorError("need num_modes >= 1")
    v = hermite_functions(num_modes, grid.points).T    # n x K
    w = grid.weights
    gram = v.T @ (w[:, None] * v)
    defect = float(np.max(np.abs(gram - np.eye(num_modes))))
    if defect > HERMITE_GRAM_TOL:
        raise OperatorError(f"grid too coarse or narrow: Hermite Gram defect "
                            f"{defect:.2e} > {HERMITE_GRAM_TOL:.0e}")
    q = v @ np.linalg.inv(np.linalg.cholesky(gram)).T
    lam = d + 2.0 * np.arange(num_modes)
    return ModelOperator(
        form=SpectralSelfAdjoint(lam, q),
        measure=grid,
        spec={"kind": "hermite", "d": d, "K": num_modes},
    )


def uniform_grid(lo: float, hi: float, n: int) -> MeasureSpace:
    """Midpoint-rule grid on [lo, hi]: cell centers with equal weights dx."""
    dx = (hi - lo) / n
    pts = lo + (np.arange(n) + 0.5) * dx
    return MeasureSpace(weights=np.full(n, dx), points=pts)


def _schrodinger_generator(n: int, h: float, v: np.ndarray, corner: float = 2.0) -> np.ndarray:
    """The tridiagonal (-1, 2, -1)/h^2 + diag(v) on n points, with
    corner/h^2 in place of the last diagonal 2/h^2."""
    t = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    t[-1, -1] = corner
    # an h whose 1/h^2 is not finite leaves non-finite entries, which
    # weighted_symmetric_eig names and refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return t / h**2 + np.diag(v)


def build_schrodinger_1d(n: int, h: float, v) -> ModelOperator:
    """Discrete -Delta + V for entrywise nonnegative V (keeps sectoriality).

    At an even n from FOLD_MIN_N on, a mirror-symmetric V (v == v[::-1]
    exactly) gives an operator that commutes with the reflection R, and the
    form is folded: the half blocks A_TT -+ A_TB R are the generator on the
    top n/2 points with -+1/h^2 added at the middle point, and each is one
    half-size eigensolve in the folded weights 2h.  Any other operator is
    one eigensolve of the whole generator.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise OperatorError(f"potential must have length {n}")
    if np.any(v < 0):
        raise OperatorError("negative potential entries are out of scope")
    if n < 1 or h <= 0:
        raise OperatorError("need n >= 1 and h > 0")
    m = MeasureSpace(weights=np.full(n, h), points=(np.arange(1, n + 1)) * h)
    spec = {"kind": "schrodinger", "n": n, "h": h, "V": v.tolist()}
    if n < FOLD_MIN_N or n % 2 or not np.array_equal(v, v[::-1]):
        lam, q = weighted_symmetric_eig(_schrodinger_generator(n, h, v), m)
        return ModelOperator(SpectralSelfAdjoint(lam, q), m, spec)
    half = n // 2
    folded = MeasureSpace(weights=np.full(half, 2.0 * h))
    lam = np.empty(n)
    blocks = np.empty((2, half, half))
    # the middle point of an even mode (u, R u) sees -1/h^2 from its mirror
    # image, that of an odd mode (u, -R u) +1/h^2
    for parity, corner in enumerate((1.0, 3.0)):
        a = _schrodinger_generator(half, h, v[:half], corner)
        lam[parity::2], blocks[parity] = weighted_symmetric_eig(a, folded)
    return ModelOperator(FoldedSelfAdjoint(lam, blocks), m, spec)


COND_SEARCH_ITERS = 40     # cap on condition numbers one search may take
COND_SEARCH_STEP = 1e-13   # a step this small, relative to t, is the last


def _root_step(points) -> float:
    """The step from the newest (t, phi) point to the root of the inverse
    quadratic t(phi) through three points, or of the secant through the
    newest two where only two are given or two of the three phi are equal;
    NaN where the newest two phi are equal."""
    (t1, f1), (t2, f2) = points[-2:]
    if len(points) == 3:
        t0, f0 = points[0]
        if f0 != f1 and f0 != f2 and f1 != f2:
            return f2 * ((t0 - t2) * f1 / ((f0 - f1) * (f0 - f2))
                         + (t1 - t2) * f0 / ((f1 - f0) * (f1 - f2)))
    return f2 * (t2 - t1) / (f1 - f2) if f1 != f2 else np.nan


def _blend_conditioning(n: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Real S = Q (I + t N) with ||N||_F = 1 and t chosen so cond(S) = kappa.

    Q is orthogonal, so cond(S) = cond(I + t N) and Q is applied once, at
    the end.  N is Gaussian and strictly lower triangular.  t is the root
    of phi(t) = ln cond(I + t N) - ln kappa.  To first order in t, ln cond
    is t times the spread lambda_max - lambda_min of H = (N + N^T) / 2,
    whose semicircle spread is about 2 sqrt(2) / sqrt(n) at ||N||_F = 1;
    the search starts at that model's root t1 = ln kappa sqrt(n) / (2 sqrt 2).
    The first step is the secant through (0, -ln kappa) and (t1, phi(t1));
    each later step is inverse quadratic interpolation through the last
    three points, or the secant through the last two where two of the
    three phi are equal.  Every sign change of phi narrows a bracket; a
    step that leaves the bracket is replaced by its midpoint, or, while no
    point with phi > 0 is known, by twice the largest point with phi < 0;
    a non-finite phi is bisected.  The search stops at |phi| <= eps kappa
    (eps = 2^-52; at most 1e-4), the relative rounding of an SVD
    condition number, or when the next step is at most
    COND_SEARCH_STEP * t, a step taken without evaluating it.  That takes
    five condition numbers at n = 96, kappa = 10 (seed 3), on average
    about five at kappa = 10 and seven from kappa = 1e4 to 1e8 (n <= 200),
    at most 15 over n = 2..200 and seeds 0-12, and leaves
    |cond(S) / kappa - 1| <= 4 eps kappa + 4 eps.  A search that has not
    stopped after COND_SEARCH_ITERS condition numbers raises OperatorError
    naming kappa and the cond(S) it reached.
    """
    qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nil = np.tril(rng.standard_normal((n, n)), -1)
    if kappa == 1.0:
        return qmat
    nil /= np.linalg.norm(nil)
    eye = np.eye(n)
    log_kappa = np.log(kappa)
    # the relative rounding of an SVD condition number, capped at 1e-4 (from
    # kappa = 4.5e11 on), so that a kappa float64 cannot resolve ends in the
    # refusal below, not at whichever t rounds close enough
    tol = min(np.finfo(float).eps * kappa, 1e-4)
    lo, hi = 0.0, np.inf              # phi(lo) < 0 < phi(hi)
    points = [(0.0, -log_kappa)]      # the last evaluated (t, phi), newest last
    t = log_kappa * np.sqrt(n / 8.0)
    for _ in range(COND_SEARCH_ITERS):
        cond = np.linalg.cond(eye + t * nil)
        f = np.log(cond) - log_kappa
        if abs(f) <= tol:
            return qmat @ (eye + t * nil)
        if not np.isfinite(f):        # no interpolation through it: bisect
            hi, t = t, 0.5 * (lo + t)
            continue
        if f < 0.0:
            lo = t
        else:
            hi = t
        points = points[-2:] + [(t, f)]
        step = _root_step(points)
        if abs(step) <= COND_SEARCH_STEP * t:
            return qmat @ (eye + (t + step) * nil)
        t += step
        if not lo < t < hi:           # also a NaN step
            t = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
    raise OperatorError(f"conditioning search for kappa = {kappa!r} did not close within "
                        f"{COND_SEARCH_ITERS} condition numbers; cond(S) reached {float(cond)!r}")


def build_nonnormal_sectorial(lambdas, conditioning: float, seed: int) -> ModelOperator:
    """A = S diag(lambdas) S^{-1} with cond(S) = conditioning to its rounding.

    S comes from _blend_conditioning, in about five SVD condition numbers
    at conditioning = 10: |cond(S) / conditioning - 1| is at most about
    4 eps conditioning + 4 eps (eps = 2^-52), the rounding of an SVD
    condition number.  lambdas must be a nonempty 1-D list, and a single
    eigenvalue admits only conditioning 1.  A conditioning whose search
    does not close, or whose S has no float64 inverse within
    SimilarityDiagonal.check's bound, is refused with OperatorError; the
    latter names cond(S).

    The spectrum equals ``lambdas`` exactly by construction.  Eigenvalues
    with negative real part are admitted as a double sector (the operator
    reads itself bisectorial) and must then keep off the imaginary axis;
    otherwise all eigenvalues must satisfy |arg lambda| < pi/2, which the
    operator checks.
    """
    lam = np.asarray(lambdas, dtype=complex)
    if not 1.0 <= conditioning < np.inf:
        raise OperatorError(f"conditioning must be finite and >= 1, got {conditioning!r}")
    if lam.ndim != 1 or lam.size == 0:
        raise OperatorError(f"lambdas must be a nonempty list of eigenvalues, "
                            f"got shape {lam.shape}")
    if lam.size == 1 and conditioning != 1.0:
        raise OperatorError(f"one eigenvalue admits only conditioning 1 (a 1 x 1 S has "
                            f"cond(S) = 1), got {conditioning!r}")
    if np.any(np.abs(lam) == 0):
        raise OperatorError("zero eigenvalue not allowed in the synthetic build")
    if np.any(np.real(lam) < 0) and np.any(np.abs(np.real(lam)) < 1e-14 * np.max(np.abs(lam))):
        raise OperatorError("double-sector spectrum must avoid the imaginary axis")
    rng = np.random.default_rng(seed)
    s = _blend_conditioning(lam.size, float(conditioning), rng)
    s_inv = np.linalg.inv(s)
    m = MeasureSpace.uniform(lam.size)
    return ModelOperator(
        form=SimilarityDiagonal(s, s_inv, lam),
        measure=m,
        spec={"kind": "nonnormal",
              "lambdas": [[z.real, z.imag] for z in lam],
              "conditioning": conditioning, "seed": seed},
    )


# -- resolvent ----------------------------------------------------------------

def check_resolvent_gap(op: ModelOperator, lam) -> None:
    """Reject points lambda within RESOLVENT_MARGIN * lambda_max of the spectrum."""
    lam = np.atleast_1d(lam)
    gap = np.abs(lam[:, None] - op.eigenvalues_or_none()[None, :]).min(axis=1)
    close = gap <= RESOLVENT_MARGIN * op.lambda_max
    if np.any(close):
        raise OperatorError(f"lambda {lam[close][0]} is within tolerance of the spectrum")


def resolvent_apply(op: ModelOperator, lam: complex, x) -> np.ndarray:
    """(lambda - A)^{-1} x through the diagonal form."""
    check_resolvent_gap(op, lam)
    return op.synthesize(op.coefficients(x) / (lam - op.eigenvalues_or_none()))


def resolvent_apply_lu(op: ModelOperator, lam: complex, x) -> np.ndarray:
    """LU-path resolvent on the assembled matrix (dual-path oracle)."""
    x = np.asarray(x, dtype=complex)
    a = lam * np.eye(op.n, dtype=complex) - op.matrix()
    return solve_complex(a, x)


# -- JSON construction ---------------------------------------------------------

def _real_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _complex_pairs(value) -> list:
    return [complex(re, im) for re, im in value]


def operator_from_spec(spec: dict) -> ModelOperator:
    """Build an operator from its JSON description (CLI surface).

    Raises SpecKeyError for a key the kind does not read,
    SpecValueError for a spec that is not an object of a known kind, a
    value that does not read as its key's type, or a size below 1 or whose
    arrays would exceed MAX_ENTRIES entries (array_size), and OperatorError
    for a spec that builds no valid operator (a measure or matrix the
    substrate refuses, or a value that overflows the float range).
    """
    read = SpecReader(spec, "operator spec",
                      ("dirichlet1d", "graph", "hermite", "schrodinger", "nonnormal"))
    if read.kind == "dirichlet1d":
        build, args = build_dirichlet_laplacian_1d, (read("n", array_size), read("h", finite, 1.0))
    elif read.kind == "graph":
        build, args = build_graph_laplacian, (read("sigma", _real_array),)
    elif read.kind == "hermite":
        grid = SpecReader(read("grid", None, {}), "hermite grid")
        lo, hi, n = grid("lo", finite, -12.0), grid("hi", finite, 12.0), grid("n", array_size, 800)
        grid.done()
        build = lambda d, modes: build_hermite_operator(d, modes, uniform_grid(lo, hi, n))
        args = read("d", integer), read("K", lambda v: array_size(v, per=n))
    elif read.kind == "schrodinger":
        n = read("n", lambda v: array_size(v, per=integer(v)))   # dense: n x n
        h, v = read("h", finite, 1.0), read("V", None, 0.0)
        if isinstance(v, dict):
            potential = SpecReader(v, "schrodinger potential")
            quadratic = potential("quadratic", finite)
            potential.done()
            v = (quadratic * ((np.arange(1, n + 1) - (n + 1) / 2) * h)) ** 2
        else:
            v = read("V", _real_array, 0.0)
        build, args = build_schrodinger_1d, (n, h, np.full(n, v) if v.ndim == 0 else v)
    else:
        lam = read("lambdas", _complex_pairs)
        spec_value(len(lam), lambda m: array_size(m, per=m), "lambdas", read.where)   # dense
        build = build_nonnormal_sectorial
        args = lam, read("conditioning", finite, 1.0), read("seed", non_negative, 0)
    read.done()
    # a grid or matrix the substrate refuses (MeasureError, LinAlgError) is
    # an invariant violation of the spec, with the substrate's reason; so is
    # a spacing whose h**2 leaves the float range (Python raises OverflowError)
    try:
        return build(*args)
    except (MeasureError, np.linalg.LinAlgError) as exc:
        raise OperatorError(str(exc)) from exc
    except OverflowError as exc:
        raise OperatorError("a spec value overflows the float range") from exc
