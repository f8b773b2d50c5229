"""Finite-dimensional sectorial model operators.

Every operator carries a measure space (hosting the L^p norms), a sector
angle for its nonzero spectrum and an injectivity flag; the kernel mask
and the spectral bounds (lambda_min over the nonzero spectrum, lambda_max)
are read off the spectrum.  Two diagonal forms:

  SpectralSelfAdjoint   eigenvalues >= 0 ascending with eigenvectors
                        orthonormal in the weighted inner product; the
                        eigenvector matrix may be rectangular (n x K),
                        in which case the operator lives on the K-mode
                        span inside the ambient grid space (Hermite).
  SimilarityDiagonal    A = S diag(lambda) S^{-1} with controlled cond(S);
                        complex spectrum, used for non-normal and
                        double-sector examples.

The diagonal form is private to this module.  Every other layer asks the
operator through coefficients and synthesize, the eigenvalues and three
members: ``nonzero`` (the kernel mask, the package's one rule for which
eigenvalues are zero), ``multiplier_norm`` (the exact L^2 norm of a
diagonal multiplier) and ``basis_conditioning``.  Resolvents and every
functional calculus go through the diagonal form; resolvent_apply_lu
solves on the assembled matrix as an independent oracle.

Every builder's operator is real, so its basis (eigenvectors, or S and
S^{-1}) is stored in float64; only the eigenvalues and the operands are
complex.  A coefficient transform or a synthesis with a real basis is one
real GEMM on the interleaved real view of the complex operand (basis_matmul),
a quarter of the flops of the complex product; a complex basis, which the
forms still accept, takes the plain complex product.

Builders: 1d Dirichlet Laplacian (closed-form spectrum), weighted graph
Laplacian I - P (self-adjoint wrt the vertex measure mu(x) = sum_y

sigma(x,y), kernel = constants), Hermite expansion (eigenvalues d + 2n on
discretized Hermite functions), Schroedinger -Delta + V, and a synthetic
non-normal operator with prescribed spectrum and conditioning.

Operators that are not injective expose the projection onto their kernel;
all downstream block machinery only ever evaluates windows that vanish at
0, so the injective part needs no special casing there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure import MeasureSpace, adjoint, solve_complex, weighted_symmetric_eig

ORTHO_TOL = 1e-10
SIMILARITY_TOL = 1e-10
PROJ_TOL = 1e-10
RESOLVENT_MARGIN = 1e-12   # reject lambda within this times lambda_max of spectrum
ZERO_EIG_TOL = 1e-12       # relative threshold deciding kernel membership


class OperatorError(ValueError):
    pass


class GraphError(OperatorError):
    """Invalid weight matrix or disconnected graph."""


class SpecKeyError(KeyError):
    """A JSON spec carries keys that nothing reads.

    A misspelled key must not leave its setting at the default, so the spec
    is rejected; as a KeyError the CLI reports it as a malformed config.
    """

    def __init__(self, keys, where: str):
        super().__init__(f"unknown key(s) {', '.join(map(repr, sorted(keys)))} in {where}")

    def __str__(self):
        return self.args[0]


def check_spec_keys(spec: dict, known, where: str) -> None:
    unknown = set(spec) - set(known)
    if unknown:
        raise SpecKeyError(unknown, where)


@dataclass
class SpectralSelfAdjoint:
    eigenvalues: np.ndarray        # real, >= 0, ascending, length K
    eigenvectors: np.ndarray       # n x K, orthonormal wrt the measure


@dataclass
class SimilarityDiagonal:
    s: np.ndarray
    s_inv: np.ndarray
    eigenvalues: np.ndarray        # complex, length n


@dataclass
class KernelProjection:
    """Projector onto N(A); idempotent, annihilated by A."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=complex)
        defect = np.linalg.norm(p @ p - p)
        if defect > PROJ_TOL * max(1.0, np.linalg.norm(p)):
            raise OperatorError(f"projector is not idempotent (defect {defect:.2e})")
        self.p = p


def kernel_projection_apply(kp: KernelProjection, x) -> np.ndarray:
    return kp.p @ np.asarray(x, dtype=complex)


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


@dataclass
class ModelOperator:
    form: SpectralSelfAdjoint | SimilarityDiagonal
    measure: MeasureSpace
    sector_angle_hint: float
    injective: bool
    bisectorial: bool = False         # spectrum in a double sector around R
    kernel_projection: KernelProjection | None = None
    spec: dict = field(default_factory=dict)   # construction echo for reports
    # read off the spectrum: per eigenvalue, whether it lies outside the
    # kernel (the package's one kernel rule), and the moduli bounds
    nonzero: np.ndarray = field(init=False, repr=False)
    lambda_min_positive: float = field(init=False)
    lambda_max: float = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.sector_angle_hint < np.pi / 2):
            raise OperatorError("sector angle hint must lie in [0, pi/2)")
        lam = self.eigenvalues_or_none()
        mod = np.abs(lam)
        self.nonzero = mod > ZERO_EIG_TOL * max(np.max(mod), 1e-300)
        if not np.any(self.nonzero):
            raise OperatorError("operator has no nonzero spectrum")
        self.lambda_min_positive = float(np.min(mod[self.nonzero]))
        self.lambda_max = float(np.max(mod))
        ang = np.abs(np.angle(lam[self.nonzero]))
        if self.bisectorial:
            ang = np.minimum(ang, np.pi - ang)
        if np.max(ang) > self.sector_angle_hint + 1e-12:
            raise OperatorError(
                f"eigenvalue outside declared sector (angle {np.max(ang):.3f} "
                f"> hint {self.sector_angle_hint:.3f})")
        if self.injective != np.all(self.nonzero):
            raise OperatorError("injective flag contradicts the spectrum")
        if isinstance(self.form, SpectralSelfAdjoint):
            # Q^H W Q as one product g^H g of g = W^(1/2) Q (a syrk for real
            # Q), minus I in place; g is freed first to keep the peak low
            g = np.sqrt(self.measure.weights)[:, None] * self.form.eigenvectors
            gram = adjoint(g) @ g
            del g
            gram.flat[::gram.shape[0] + 1] -= 1.0
            if np.max(np.abs(gram)) > ORTHO_TOL:
                raise OperatorError("eigenvectors are not orthonormal wrt the measure")
        if isinstance(self.form, SimilarityDiagonal):
            s, si = self.form.s, self.form.s_inv
            if np.linalg.norm(s @ si - np.eye(s.shape[0])) > SIMILARITY_TOL * s.shape[0]:
                raise OperatorError("similarity inverse fails ||S S^-1 - I|| tolerance")

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.measure.size

    def eigenvalues_or_none(self):
        """The eigenvalues as a complex array (both forms are diagonal)."""
        return np.asarray(self.form.eigenvalues, dtype=complex)

    def matrix(self) -> np.ndarray:
        """Assemble the dense matrix of A."""
        if isinstance(self.form, SpectralSelfAdjoint):
            q, lam = self.form.eigenvectors, self.form.eigenvalues
            w = self.measure.weights
            return (q * lam[None, :]) @ (adjoint(q) * w[None, :])
        return (self.form.s * self.form.eigenvalues[None, :]) @ self.form.s_inv

    def coefficients(self, x) -> np.ndarray:
        """Expansion coefficients of x in the operator's eigenbasis."""
        x = np.asarray(x, dtype=complex)
        if isinstance(self.form, SpectralSelfAdjoint):
            return basis_matmul(adjoint(self.form.eigenvectors), self.measure.weights * x)
        return basis_matmul(self.form.s_inv, x)

    def synthesize(self, coeffs) -> np.ndarray:
        """Sum of coefficients times eigenvectors; a K x m stack gives n x m."""
        basis = (self.form.eigenvectors if isinstance(self.form, SpectralSelfAdjoint)
                 else self.form.s)
        return basis_matmul(basis, coeffs)

    def apply(self, x) -> np.ndarray:
        return self.synthesize(self.eigenvalues_or_none() * self.coefficients(x))

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        """I.i.d. complex Gaussian spectral content (span of the modes)."""
        k = self.eigenvalues_or_none().size
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return self.synthesize(c)

    def kernel_dim(self) -> int:
        return int(np.sum(~self.nonzero))

    def multiplier_norm(self, values):
        """Exact L^2(measure) operator norm of sum_k values[k] <., e_k> e_k.

        max_k |values[k]| for an orthonormal eigenbasis, otherwise the
        2-norm of W^(1/2) S diag(values) S^-1 W^(-1/2).  A stack of shape
        (m, K), one multiplier per row, gives the m norms as an array.
        """
        v = np.asarray(values)
        if isinstance(self.form, SpectralSelfAdjoint):
            return np.max(np.abs(v), axis=-1)
        sqw = np.sqrt(self.measure.weights)
        s, s_inv = sqw[:, None] * self.form.s, self.form.s_inv / sqw[None, :]
        norms = [np.linalg.norm((s * row) @ s_inv, 2) for row in np.atleast_2d(v)]
        return np.array(norms) if v.ndim > 1 else norms[0]

    def basis_conditioning(self) -> float:
        """cond_2 of the eigenbasis: ||S|| ||S^-1||, or 1 if orthonormal."""
        if isinstance(self.form, SimilarityDiagonal):
            return float(np.linalg.norm(self.form.s, 2) * np.linalg.norm(self.form.s_inv, 2))
        return 1.0


# -- builders ----------------------------------------------------------------

def build_dirichlet_laplacian_1d(n: int, h: float) -> ModelOperator:
    """Tridiagonal (2,-1,-1)/h^2 with closed-form spectrum.

    Eigenvalues (2 - 2 cos(k pi/(n+1)))/h^2 and sine eigenvectors,
    orthonormal wrt the grid measure w_i = h.
    """
    if n < 1 or h <= 0:
        raise OperatorError("need n >= 1 and h > 0")
    k = np.arange(1, n + 1)
    lam = (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2
    i = np.arange(1, n + 1)
    q = np.sin(np.outer(i, k) * np.pi / (n + 1)) * np.sqrt(2.0 / ((n + 1) * h))
    m = MeasureSpace(weights=np.full(n, h), points=i * h)
    return ModelOperator(
        form=SpectralSelfAdjoint(lam, q),
        measure=m, sector_angle_hint=0.0, injective=True,
        spec={"kind": "dirichlet1d", "n": n, "h": h},
    )


def build_graph_laplacian(sigma) -> tuple:
    """Graph Laplacian A = I - P for a symmetric weight sigma with loops.

    mu(x) = sum_y sigma(x,y), p(x,y) = sigma(x,y)/(mu(x) mu(y)) and
    P f(x) = sum_y p(x,y) f(y) mu(y).  A is self-adjoint wrt mu, has
    eigenvalue 0 on the constants (P is mu-stochastic), and is returned
    with the projection onto its kernel.  Raises GraphError for an
    asymmetric weight, nonpositive loops, or a disconnected graph
    (eigenvalue 0 of multiplicity > 1).
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
    proj = np.tile(mu / mu.sum(), (n, 1))       # mu-weighted mean onto constants
    kp = KernelProjection(proj.astype(complex))
    op = ModelOperator(
        form=SpectralSelfAdjoint(lam, q),
        measure=m, sector_angle_hint=0.0, injective=False,
        kernel_projection=kp,
        spec={"kind": "graph", "sigma": sigma.tolist()},
    )
    return op, kp


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


def build_hermite_operator(d: int, num_modes: int, grid: MeasureSpace,
                           gram_tol: float = 1e-6) -> ModelOperator:
    """Eigenvalues d, d+2, ..., d+2(K-1) on discretized Hermite functions.

    The grid must be wide and fine enough that the discretized Hermite
    functions are orthonormal wrt the grid weights to ``gram_tol``; they
    are then re-orthonormalized in the weighted inner product so the
    spectral form is exact: one Householder QR of W^(1/2) V with the
    column signs fixed so diag(R) > 0, which is the factorization Gram-
    Schmidt computes, and Q = W^(-1/2) (W^(1/2) V R^-1) is real.
    """
    if d < 1 or num_modes < 1:
        raise OperatorError("need d >= 1 and num_modes >= 1")
    v = hermite_functions(num_modes, grid.points).T    # n x K
    w = grid.weights
    gram = v.T @ (w[:, None] * v)
    defect = float(np.max(np.abs(gram - np.eye(num_modes))))
    if defect > gram_tol:
        raise OperatorError(
            f"grid too coarse or narrow: Hermite Gram defect {defect:.2e} > {gram_tol:.0e}")
    sqw = np.sqrt(w)
    u, r = np.linalg.qr(sqw[:, None] * v)
    q = u * np.sign(np.diag(r)) / sqw[:, None]
    lam = d + 2.0 * np.arange(num_modes)
    return ModelOperator(
        form=SpectralSelfAdjoint(lam, q),
        measure=grid, sector_angle_hint=0.0, injective=True,
        spec={"kind": "hermite", "d": d, "K": num_modes},
    )


def uniform_grid(lo: float, hi: float, n: int) -> MeasureSpace:
    """Midpoint-rule grid on [lo, hi]: cell centers with equal weights dx."""
    dx = (hi - lo) / n
    pts = lo + (np.arange(n) + 0.5) * dx
    return MeasureSpace(weights=np.full(n, dx), points=pts)


def build_schrodinger_1d(n: int, h: float, v) -> ModelOperator:
    """Discrete -Delta + V for entrywise nonnegative V (keeps sectoriality)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise OperatorError(f"potential must have length {n}")
    if np.any(v < 0):
        raise OperatorError("negative potential entries are out of scope")
    if n < 1 or h <= 0:
        raise OperatorError("need n >= 1 and h > 0")
    a = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h**2 + np.diag(v)
    m = MeasureSpace(weights=np.full(n, h), points=(np.arange(1, n + 1)) * h)
    lam, q = weighted_symmetric_eig(a, m)
    return ModelOperator(
        form=SpectralSelfAdjoint(lam, q),
        measure=m, sector_angle_hint=0.0, injective=True,
        spec={"kind": "schrodinger", "n": n, "h": h, "V": v.tolist()},
    )


COND_SEARCH_RTOL = 4e-16   # bracket width relative to t that ends the search
COND_SEARCH_ITERS = 40     # cap on regula falsi steps after the bracket is found


def _blend_conditioning(n: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Real S = Q (I + t N) with ||N||_2 = 1 and t chosen so cond(S) = kappa.

    Q is orthogonal, so cond(S) = cond(I + t N) and Q is applied once, at
    the end.  The root of cond(I + t N) - kappa is bracketed by doubling t
    from 1 (cond(I) = 1 < kappa at t = 0) and then found by Illinois regula
    falsi: the secant point of the bracket replaces the endpoint of its own
    sign, and an endpoint kept twice in a row has its residual halved, so
    both ends converge.  It stops once the bracket is COND_SEARCH_RTOL * t
    wide, after about a dozen condition numbers where bisection to the
    same width needs some sixty.
    """
    qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nil = np.tril(rng.standard_normal((n, n)), -1)
    if kappa == 1.0 or n == 1:
        return qmat
    nil /= np.linalg.norm(nil, 2)
    eye = np.eye(n)

    def residual(t):
        return np.linalg.cond(eye + t * nil) - kappa

    t_lo, f_lo = 0.0, 1.0 - kappa
    t_hi = 1.0
    f_hi = residual(t_hi)
    while f_hi < 0.0 and t_hi <= 1e8:
        t_lo, f_lo = t_hi, f_hi
        t_hi *= 2.0
        f_hi = residual(t_hi)
    t = t_hi
    if f_hi > 0.0:
        kept = 0                  # +1 / -1: which end was kept last step
        for _ in range(COND_SEARCH_ITERS):
            t = (t_lo * f_hi - t_hi * f_lo) / (f_hi - f_lo)
            f = residual(t)
            if f == 0.0:
                break
            if f < 0.0:
                t_lo, f_lo = t, f
                if kept == 1:
                    f_hi *= 0.5
                kept = 1
            else:
                t_hi, f_hi = t, f
                if kept == -1:
                    f_lo *= 0.5
                kept = -1
            if t_hi - t_lo <= COND_SEARCH_RTOL * t:
                break
    return qmat @ (eye + t * nil)


def build_nonnormal_sectorial(lambdas, conditioning: float, seed: int) -> ModelOperator:
    """A = S diag(lambdas) S^{-1} with cond(S) ~ conditioning.

    The spectrum equals ``lambdas`` exactly by construction.  Eigenvalues
    with negative real part are admitted as a double sector (bisectorial
    flag set); otherwise all nonzero eigenvalues must satisfy
    |arg lambda| < pi/2.
    """
    lam = np.asarray(lambdas, dtype=complex)
    if conditioning < 1.0:
        raise OperatorError("conditioning must be >= 1")
    if np.any(np.abs(lam) == 0):
        raise OperatorError("zero eigenvalue not allowed in the synthetic build")
    ang = np.abs(np.angle(lam))
    bisect = bool(np.any(np.real(lam) < 0))
    if bisect:
        ang = np.minimum(ang, np.pi - ang)
        if np.any(np.abs(np.real(lam)) < 1e-14 * np.max(np.abs(lam))):
            raise OperatorError("double-sector spectrum must avoid the imaginary axis")
    hint = float(np.max(ang))
    if hint >= np.pi / 2:
        raise OperatorError("eigenvalues must lie strictly inside the (double) sector")
    rng = np.random.default_rng(seed)
    s = _blend_conditioning(lam.size, float(conditioning), rng)
    s_inv = np.linalg.inv(s)
    m = MeasureSpace.uniform(lam.size)
    return ModelOperator(
        form=SimilarityDiagonal(s, s_inv, lam),
        measure=m, sector_angle_hint=hint, injective=True,
        bisectorial=bisect,
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

# Keys each operator kind reads from its JSON spec, besides "kind".
_SPEC_KEYS = {
    "dirichlet1d": ("n", "h"),
    "graph": ("sigma",),
    "hermite": ("d", "K", "grid"),
    "schrodinger": ("n", "h", "V"),
    "nonnormal": ("lambdas", "conditioning", "seed"),
}


def operator_from_spec(spec: dict) -> ModelOperator:
    """Build an operator from its JSON description (CLI surface).

    Raises SpecKeyError for a key the kind does not read.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise OperatorError("operator spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind in _SPEC_KEYS:
        check_spec_keys(spec, ("kind",) + _SPEC_KEYS[kind], f"{kind} operator spec")
    if kind == "dirichlet1d":
        return build_dirichlet_laplacian_1d(int(spec["n"]), float(spec.get("h", 1.0)))
    if kind == "graph":
        op, _ = build_graph_laplacian(spec["sigma"])
        return op
    if kind == "hermite":
        g = spec.get("grid", {})
        check_spec_keys(g, ("lo", "hi", "n"), "hermite grid")
        grid = uniform_grid(float(g.get("lo", -12.0)), float(g.get("hi", 12.0)),
                            int(g.get("n", 800)))
        return build_hermite_operator(int(spec["d"]), int(spec["K"]), grid)
    if kind == "schrodinger":
        n, h = int(spec["n"]), float(spec.get("h", 1.0))
        v = spec.get("V", 0.0)
        if isinstance(v, dict):
            check_spec_keys(v, ("quadratic",), "schrodinger potential")
            x = (np.arange(1, n + 1) - (n + 1) / 2) * h
            v = (float(v["quadratic"]) * x) ** 2
        elif np.isscalar(v):
            v = np.full(n, float(v))
        return build_schrodinger_1d(n, h, np.asarray(v, dtype=float))
    if kind == "nonnormal":
        lam = [complex(re, im) for re, im in spec["lambdas"]]
        return build_nonnormal_sectorial(lam, float(spec.get("conditioning", 1.0)),
                                         int(spec.get("seed", 0)))
    raise OperatorError(f"unknown operator kind {kind!r}")
