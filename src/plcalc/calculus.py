"""Functional calculus: spectral route, contour quadrature and
double-sector variants.

For diagonalizable forms f(A)x = sum_k f(lambda_k) <x, e_k> e_k is exact
linear algebra.  The quadrature route discretizes the boundary-of-sector
integral

    f(A) = (1/2 pi i) int_Gamma f(lambda) (lambda - A)^{-1} dlambda,

with Gamma the two rays r e^{+-i sigma} oriented counterclockwise around
the spectrum (in from infinity on the upper ray, out to infinity on the
lower).  In log-radius coordinates the trapezoid rule converges
geometrically; admitted symbols must carry a decay certificate so the
truncated ray tails can be bounded a priori:

    tail_0   <= (kappa C / pi) * (2/lambda_min) * r_min^(1+eps0) / (1+eps0)
    tail_inf <= (kappa C / pi) * 2 * r_max^(-eps_inf) / eps_inf

(kappa = basis conditioning, C/eps from the certificate; r_min <=
lambda_min/2, r_max >= 2 lambda_max assumed).

On an operator that is not injective every calculus call acts on the
injective part: the kernel coefficients are dropped, which is composing
with I - P (P = ModelOperator.kernel_component, the projection onto the
kernel), and symbols are only ever evaluated on the nonzero spectrum.

The strip-type calculus of B = log A needs no operator of its own: f(B)
is (f o log)(A) through apply_spectral (the group A^{is} is the
imag_power symbol), and the block norms of B are the equidistant windows
applied to A, which norms evaluates at Re log lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import RESOLVENT_MARGIN, ModelOperator, check_resolvent_gap
from .symbols import Symbol, make_symbol

DEFAULT_SIGMA_FLOOR = 0.15    # contour half-angle floor; see default_contour_spec
DEFAULT_TAIL_TOL = 1e-9


class CalculusError(RuntimeError):
    pass


def spectral_multiplier(op: ModelOperator, values, x) -> np.ndarray:
    """Apply sum_k values[k] <x,e_k> e_k; the one synthesis under every norm.

    ``values`` of shape (K,) gives the vector f(A)x.  A stack of shape
    (m, K), one multiplier per row, gives the m outputs f_i(A)x as the rows
    of an (m, n) array, from one coefficient transform and one synthesis.
    """
    scaled = np.asarray(values, dtype=complex) * op.coefficients(x)
    return op.synthesize(scaled.T).T


def apply_spectral(op: ModelOperator, f: Symbol, x) -> np.ndarray:
    """f(A)x through the eigenbasis (exact linear-algebra contract).

    On a real spectrum f is evaluated on the real line; a complex spectrum
    needs the symbol's sector evaluation and raises CalculusError without
    one.  For operators with kernel, the kernel coefficients are dropped
    (the calculus of the injective part).
    """
    lam_nz = op.eigenvalues_or_none()[op.nonzero]
    vals = np.zeros(op.nonzero.shape, dtype=complex)
    if not np.any(np.imag(lam_nz)):
        vals[op.nonzero] = f(np.real(lam_nz))
    elif f.sector_evaluate is not None:
        vals[op.nonzero] = f.on_sector(lam_nz)
    else:
        raise CalculusError(f"symbol {f.name} has no sector evaluation for a complex spectrum")
    if not np.all(np.isfinite(vals)):
        raise CalculusError(f"symbol {f.name} is not finite on the spectrum")
    return spectral_multiplier(op, vals, x)


def log_trapezoid(lo: float, hi: float, nodes_per_decade: int):
    """Trapezoid rule in u = log r on [lo, hi]: the nodes r and weights du,
    at least nodes_per_decade nodes per decade and never fewer than two."""
    decades = np.log10(hi / lo)
    n = max(int(np.ceil(decades * nodes_per_decade)) + 1, 2)
    u = np.linspace(np.log(lo), np.log(hi), n)
    du = np.full(n, u[1] - u[0])
    du[0] *= 0.5
    du[-1] *= 0.5
    return np.exp(u), du


@dataclass
class ContourSpec:
    """Two-ray boundary-of-sector contour in log-radius coordinates."""

    sigma: float
    r_min: float
    r_max: float
    nodes_per_decade: int = 64

    def __post_init__(self):
        if not (0 < self.sigma < np.pi):
            raise CalculusError("contour angle must lie in (0, pi)")
        if not (0 < self.r_min < self.r_max):
            raise CalculusError("need 0 < r_min < r_max")
        if self.nodes_per_decade < 8:
            raise CalculusError("need at least 8 nodes per decade")

    def nodes(self):
        return log_trapezoid(self.r_min, self.r_max, self.nodes_per_decade)


def default_contour_spec(op: ModelOperator, f: Symbol, tail_tol: float = DEFAULT_TAIL_TOL,
                         nodes_per_decade: int = 64) -> ContourSpec:
    """Certified contour: angle outside the sector, radii chosen so the
    certificate bounds both ray tails below tail_tol.

    The angle floor keeps the trapezoid rate useful: node error scales
    like exp(-2 pi sigma / h) with h = ln(10)/nodes_per_decade, so
    sigma = 0.15 at 64 nodes/decade already gives ~1e-11.
    """
    if f.decay is None:
        raise CalculusError(f"symbol {f.name} carries no decay certificate")
    sigma = max(2.0 * op.sector_angle_hint, DEFAULT_SIGMA_FLOOR)
    sigma = min(sigma, np.pi / 2 * 0.98)
    if f.decay.sigma_max > 0 and sigma > f.decay.sigma_max:
        sigma = 0.5 * (op.sector_angle_hint + f.decay.sigma_max)
        if sigma <= op.sector_angle_hint:
            raise CalculusError("certificate angle does not clear the operator sector")
    kappa = op.basis_conditioning()
    c, e0, ei = f.decay.C, f.decay.eps0, f.decay.eps_inf
    lam_min, lam_max = op.lambda_min_positive, op.lambda_max
    # invert the tail bounds from the module docstring, with 10% headroom
    tail_tol = 0.9 * tail_tol
    if np.isfinite(e0):
        r_min = (tail_tol * np.pi * lam_min * (1 + e0) / (4 * kappa * c)) ** (1 / (1 + e0))
        r_min = min(r_min, lam_min / 2**10)
    else:
        r_min = lam_min / 2**10
    if np.isfinite(ei):
        r_max = (4 * kappa * c / (np.pi * ei * tail_tol)) ** (1 / ei)
        r_max = max(r_max, lam_max * 2**10)
    else:
        r_max = lam_max * 2**10
    return ContourSpec(sigma=sigma, r_min=float(r_min), r_max=float(r_max),
                       nodes_per_decade=nodes_per_decade)


def contour_tail_bound(op: ModelOperator, f: Symbol, spec: ContourSpec) -> float:
    """A priori bound on the truncated ray tails, per unit ||x||."""
    if f.decay is None:
        raise CalculusError(f"symbol {f.name} carries no decay certificate")
    kappa = op.basis_conditioning()
    c, e0, ei = f.decay.C, f.decay.eps0, f.decay.eps_inf
    lam_min, lam_max = op.lambda_min_positive, op.lambda_max
    if spec.r_min > lam_min / 2 or spec.r_max < 2 * lam_max:
        raise CalculusError("contour radii must bracket the spectrum (r_min <= "
                            "lambda_min/2, r_max >= 2 lambda_max)")
    tail = 0.0
    if np.isfinite(e0):
        tail += (kappa * c / np.pi) * (2.0 / lam_min) * spec.r_min ** (1 + e0) / (1 + e0)
    if np.isfinite(ei):
        tail += (kappa * c / np.pi) * 2.0 * spec.r_max ** (-ei) / ei
    return tail


def _ray_distance(lam, ray: complex, r_lo: float, r_hi: float) -> np.ndarray:
    """Distance of each point lam to the segment [r_lo, r_hi] * ray (|ray| = 1):
    rotate onto the positive axis, clamp along it, take the hypotenuse."""
    w = np.asarray(lam) * np.conj(ray)
    return np.hypot(w.real - np.clip(w.real, r_lo, r_hi), w.imag)


def apply_contour(op: ModelOperator, f: Symbol, x, spec: ContourSpec | None = None,
                  tail_tol: float = DEFAULT_TAIL_TOL):
    """f(A)x by trapezoid quadrature of the two-ray sector contour.

    Requires a sector-analytic symbol with a decay certificate; the
    truncation tail estimate is attached to the result metadata and must
    stay below ``tail_tol``.  Returns (y, tail_bound).

    Every node must keep RESOLVENT_MARGIN * lambda_max away from the
    spectrum (check_resolvent_gap).  Per ray a geometric certificate comes
    first: the nodes lie on the segment [r_0, r_last] e^{+-i sigma}, so
    when every eigenvalue is more than twice that margin from the segment
    (_ray_distance, O(K)), no node can be within the margin, rounding of
    the nodes included, and the O(nodes x K) scan is skipped.  Otherwise
    the scan runs and raises as it always has.
    """
    if f.sector_evaluate is None:
        raise CalculusError(f"symbol {f.name} has no sector-analytic evaluation")
    if spec is None:
        spec = default_contour_spec(op, f, tail_tol)
    if spec.sigma <= op.sector_angle_hint:
        raise CalculusError("contour angle lies inside the spectral sector")
    if f.decay is not None and 0 < f.decay.sigma_max < spec.sigma:
        raise CalculusError("contour angle exceeds the symbol's certified sector")
    tail = contour_tail_bound(op, f, spec)
    if tail > tail_tol:
        raise CalculusError(f"certified contour tail {tail:.2e} above tolerance {tail_tol:.2e}")
    x = np.asarray(x, dtype=complex)
    x = x - op.kernel_component(x)
    # on the diagonal form the quadrature sum of f(z_j) z_j du_j (z_j - A)^-1
    # is one scalar weight per eigenvalue; counterclockwise means in along
    # the upper ray and out along the lower, the lower-minus-upper sum below
    lam = op.eigenvalues_or_none()
    r, du = spec.nodes()
    weights = np.zeros(lam.shape, dtype=complex)
    for sign in (-1.0, +1.0):
        ray = np.exp(1j * sign * spec.sigma)
        z = r * ray
        fv = np.asarray(f.on_sector(z), dtype=complex)
        live = fv != 0.0
        if np.min(_ray_distance(lam, ray, r[0], r[-1])) <= 2.0 * RESOLVENT_MARGIN * op.lambda_max:
            check_resolvent_gap(op, z[live])
        c = (du * fv * z)[live]
        weights += -sign * (c @ (1.0 / (z[live, None] - lam[None, :])))
    return spectral_multiplier(op, weights / (2j * np.pi), x), tail


def fractional_power_apply(op: ModelOperator, theta: float, x) -> np.ndarray:
    """A^theta x through the spectral calculus of t -> t^theta, on the
    injective part (A^0 = I - P)."""
    if theta == 0.0:
        x = np.asarray(x, dtype=complex)
        return x - op.kernel_component(x)
    return apply_spectral(op, make_symbol("power", theta=theta), x)


def semigroup_apply(op: ModelOperator, t: float, x) -> np.ndarray:
    """e^{-tA} x (kernel coefficients ride along with value 1)."""
    if t < 0:
        raise CalculusError("semigroup time must be >= 0")
    lam = op.eigenvalues_or_none()
    return spectral_multiplier(op, np.exp(-t * lam), x)


def bisectorial_projections(op: ModelOperator):
    """Spectral projections P1 (Re lambda > 0) and P2 (Re lambda < 0), as
    n x n arrays.

    P1 + P2 = I and P1 P2 = 0 up to the conditioning of the eigenbasis
    (together they make each idempotent); eigenvalues on the imaginary
    axis are rejected.
    """
    lam = op.eigenvalues_or_none()
    if np.any(np.abs(np.real(lam)) < 1e-14 * np.max(np.abs(lam))):
        raise CalculusError("eigenvalue on the imaginary axis")
    right = (np.real(lam) > 0)[:, None]
    # column j holds the coefficients of e_j (the weights of an orthonormal
    # form scale the diagonal identity alike along either axis)
    coeffs = op.coefficients(np.eye(op.n))
    return (op.synthesize(np.where(right, coeffs, 0.0)),
            op.synthesize(np.where(right, 0.0, coeffs)))


def even_multiplier_direct(op: ModelOperator, f, x) -> np.ndarray:
    """lambda -> f(|lambda|) applied straight through the eigenbasis."""
    lam = op.eigenvalues_or_none()
    vals = np.asarray(f(np.abs(lam)), dtype=complex)
    return spectral_multiplier(op, vals, x)


def even_multiplier_via_projections(op: ModelOperator, f, x) -> np.ndarray:
    """f(|.|)(A)x = f(|.|)(A1) P1 x + f(|.|)(A2) P2 x, the split route."""
    p1, p2 = bisectorial_projections(op)
    lam = op.eigenvalues_or_none()
    vals = np.asarray(f(np.abs(lam)), dtype=complex)
    right = np.real(lam) > 0
    x = np.asarray(x, dtype=complex)
    y1 = spectral_multiplier(op, np.where(right, vals, 0.0), p1 @ x)
    y2 = spectral_multiplier(op, np.where(~right, vals, 0.0), p2 @ x)
    return y1 + y2
