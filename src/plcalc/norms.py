"""Block-decomposition norms: square sums, randomized sums, continuous
square functions, discrete/continuous Besov-type norms, K-functionals and
real interpolation norms.

Every block, square-function and Besov norm is a reduction over the rows
of one calculus.spectral_multiplier call with a stack of multipliers: the
weighted windows 2^(n theta) window_n, or the symbol at the quadrature
nodes, psi(t_j .) or f(t_j .).  A stack costs one coefficient transform and
one synthesis, whatever its height.  With y_n = window_n(A) x the spectral
blocks of x, the norms are

  square           || ( sum_n |2^(n theta) y_n|^2 )^(1/2) ||_p
  randomized       E || sum_n eps_n 2^(n theta) y_n ||_p   (Monte Carlo)
  continuous sq.   || ( int_0^inf |t^-theta psi(tA)x|^2 dt/t )^(1/2) ||_p
  Besov discrete   ( sum_n (2^(n theta) ||y_n||_p)^q )^(1/q)
  Besov continuous ( int_0^inf (t^-theta ||f(tA)x||_p)^q dt/t )^(1/q)
  K-functional     K(t,x) = inf_{x0+x1=x} ||A^t0 x0||_2 + t ||A^t1 x1||_2
  interpolation    ( int_0^inf (t^-vartheta K(t,x))^q dt/t )^(1/q)

At p = 2 the optimal K-functional split reduces in diagonal coordinates
a_k = |<x, e_k>| to the one-parameter family

    y_k(c) = a_k / (1 + c * lambda_k^(2 (theta0 - theta1))),

with c fixed by the stationarity equation c = nu / (t mu), whose residual
changes sign at most once: one bracket per t on a shared log c-grid,
bisected a fixed number of times, against the boundary splits y = a, y = 0.

Everything is deterministic given (inputs, seed): random ensembles are
seeded, quadrature grids are fixed by their specs, reductions run in a
fixed order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .calculus import StripOperator, spectral_multiplier
from .measure import lp_norm
from .operators import ModelOperator
from .partitions import EQUIDISTANT, EVEN_BISECTORIAL, INHOMOGENEOUS, PartitionOfUnity
from .symbols import Symbol


class NormsError(ValueError):
    pass


@dataclass(frozen=True)
class RandomEnsemble:
    """Seeded sign/gaussian ensemble; the stream is reproducible from the seed."""

    seed: int
    count: int = 256
    kind: str = "rademacher"     # or "gaussian"

    def __post_init__(self):
        if self.count < 1:
            raise NormsError("ensemble count must be >= 1")
        if self.kind not in ("rademacher", "gaussian"):
            raise NormsError(f"unknown ensemble kind {self.kind!r}")

    def draws(self, width: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.kind == "rademacher":
            return rng.integers(0, 2, size=(self.count, width)) * 2.0 - 1.0
        return rng.standard_normal((self.count, width))

    def to_json(self) -> dict:
        return {"seed": self.seed, "count": self.count, "kind": self.kind}


@dataclass(frozen=True)
class QuadratureSpec:
    """Log-trapezoid rule on [t_lo, t_hi]; nodes anchored geometrically."""

    t_lo: float
    t_hi: float
    nodes_per_decade: int = 64
    rule: str = "log-trapezoid"

    def __post_init__(self):
        if not (0 < self.t_lo < self.t_hi):
            raise NormsError("need 0 < t_lo < t_hi")
        if self.nodes_per_decade < 4:
            raise NormsError("need at least 4 nodes per decade")

    def nodes(self):
        decades = np.log10(self.t_hi / self.t_lo)
        n = max(int(np.ceil(decades * self.nodes_per_decade)) + 1, 2)
        u = np.linspace(np.log(self.t_lo), np.log(self.t_hi), n)
        du = np.full(n, u[1] - u[0])
        du[0] *= 0.5
        du[-1] *= 0.5
        return np.exp(u), du

    @staticmethod
    def cover(op: ModelOperator, margin: float = 2.0**10,
              nodes_per_decade: int = 64) -> "QuadratureSpec":
        """Default coverage t in [1/(margin lambda_max), margin/lambda_min]."""
        return QuadratureSpec(t_lo=1.0 / (margin * op.lambda_max),
                              t_hi=margin / op.lambda_min_positive,
                              nodes_per_decade=nodes_per_decade)

    def scaled(self, factor: float) -> "QuadratureSpec":
        return QuadratureSpec(self.t_lo * factor, self.t_hi * factor,
                              self.nodes_per_decade, self.rule)

    def to_json(self) -> dict:
        return {"t_lo": self.t_lo, "t_hi": self.t_hi,
                "nodes_per_decade": self.nodes_per_decade, "rule": self.rule}


# -- spectral blocks -----------------------------------------------------------

def _spectral_argument(op) -> np.ndarray:
    """The real eigenvalues, where half-line symbols are evaluated.

    The admission rule of every path that reads a real spectrum: windows,
    square-function and Besov symbols and the K-functional live on the
    half-line, so a complex or a negative spectrum raises NormsError (the
    even, double-sector windows take the moduli instead).  A strip
    operator gives the real parts of its strip spectrum.
    """
    if isinstance(op, StripOperator):
        return np.real(op.mu)
    lam = op.eigenvalues_or_none()
    tol = 1e-12 * max(np.max(np.abs(lam)), 1e-300)
    if np.max(np.abs(np.imag(lam))) > tol:
        raise NormsError("complex spectrum: use the even (double-sector) windows")
    lam = np.real(lam)
    if np.min(lam) < -tol:
        raise NormsError("negative eigenvalues: half-line symbols need a spectrum in "
                         "[0, inf); use the even (double-sector) windows")
    return lam


def _dilation_table(op: ModelOperator, f, t) -> np.ndarray:
    """f(t_j lambda_k): row j for the node t_j, column k for the eigenvalue
    lambda_k; kernel columns are 0."""
    lam = _spectral_argument(op)
    table = np.zeros((t.size, lam.size), dtype=complex)
    table[:, op.nonzero] = np.asarray(f(np.outer(t, lam[op.nonzero])), dtype=complex)
    return table


def block_indices(op, p: PartitionOfUnity):
    """Active window indices for the operator's spectral range."""
    if isinstance(op, StripOperator):
        if p.kind != EQUIDISTANT:
            raise NormsError("strip operators use the equidistant partition")
        lo, hi = op.strip_bounds()
        return list(p.indices(lo, hi))
    if p.kind == EQUIDISTANT:
        raise NormsError("equidistant partition applies to strip operators")
    if p.kind == EVEN_BISECTORIAL:
        mod = np.abs(op.eigenvalues_or_none())
        return list(p.indices(float(np.min(mod)), float(np.max(mod))))
    _spectral_argument(op)      # rejects a complex or negative spectrum
    return list(p.indices(op.lambda_min_positive, op.lambda_max))


def spectral_blocks(op, p: PartitionOfUnity, x, theta: float = 0.0):
    """(indices, Y): the active window indices n and, in row i, the block
    2^(n theta) window_n(A) x of n = indices[i].

    One multiplier stack of the weighted windows, so one coefficient
    transform and one synthesis for all blocks.  Windows vanish at 0, so
    kernel content never enters any block; the machinery automatically
    acts on the injective part.
    """
    if theta != 0.0 and p.kind == EQUIDISTANT:
        raise NormsError("weighted blocks are defined for dyadic partitions")
    indices = block_indices(op, p)
    # a strip operator only admits the equidistant partition, so the even
    # kind always sits on a model operator
    arg = (np.abs(op.eigenvalues_or_none()) if p.kind == EVEN_BISECTORIAL
           else _spectral_argument(op))
    windows = np.array([p.window(n, arg) for n in indices])
    indices = np.array(indices)
    if theta != 0.0:
        windows *= _block_weights(indices, theta)[:, None]
    return indices, spectral_multiplier(op, windows, x)


def _block_weights(indices, theta: float) -> np.ndarray:
    """2^(n theta) at every block index n; an overflow raises NormsError
    (a weight of inf would turn the zeros of its window into NaN), an
    underflow to 0 is kept."""
    with np.errstate(over="ignore"):
        weights = 2.0 ** (indices * theta)
    if not np.all(np.isfinite(weights)):
        raise NormsError(f"non-finite block weights 2^(n theta) at theta={theta}")
    return weights


def pl_square_norm(op, p: PartitionOfUnity, x, pnorm=2, theta: float = 0.0) -> float:
    """|| ( sum_n |2^(n theta) window_n(A) x|^2 )^(1/2) ||_p."""
    _, ys = spectral_blocks(op, p, x, theta)
    return lp_norm(np.sqrt(np.sum(np.abs(ys) ** 2, axis=0)), pnorm, op.measure)


@dataclass
class PLRandomResult:
    mean: float
    stderr: float
    samples: np.ndarray


def pl_random_norm(op, p: PartitionOfUnity, x, pnorm, ens: RandomEnsemble,
                   theta: float = 0.0) -> PLRandomResult:
    """Monte Carlo E || sum_n eps_n 2^(n theta) window_n(A) x ||_p.

    Returns the sample mean of the norm, its standard error, and the raw
    samples (their squares feed the square-sum consistency check).
    """
    _, ys = spectral_blocks(op, p, x, theta)
    samples = lp_norm(ens.draws(len(ys)) @ ys, pnorm, op.measure)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(ens.count)) if ens.count > 1 else 0.0
    return PLRandomResult(mean, stderr, samples)


def pl_inhomogeneous_norm(op, p: PartitionOfUnity, x, pnorm=2, theta: float = 0.0,
                          variant: str = "square", ens: RandomEnsemble | None = None):
    """Inhomogeneous variant: blocks phi_n, n >= 0, weights 2^(n theta) >= 1."""
    if p.kind != INHOMOGENEOUS:
        raise NormsError("pass the inhomogeneous partition")
    if theta < 0:
        raise NormsError("inhomogeneous weights need theta >= 0")
    if variant == "square":
        return pl_square_norm(op, p, x, pnorm, theta)
    if variant == "random":
        if ens is None:
            raise NormsError("random variant needs an ensemble")
        return pl_random_norm(op, p, x, pnorm, ens, theta)
    raise NormsError(f"unknown variant {variant!r}")


# -- continuous square function -------------------------------------------------

def continuous_square_norm(op: ModelOperator, psi: Symbol, theta: float, x,
                           pnorm=2, quad: QuadratureSpec | None = None,
                           tail_rtol: float = 1e-8) -> float:
    """|| ( int |t^-theta psi(tA) x|^2 dt/t )^(1/2) ||_p by log-trapezoid.

    psi must certify |psi(t)| <= C min(t^eps0, t^-eps_inf) with eps0 > theta
    and eps_inf > -theta, so the truncated integrand
    t^(-2 theta) |psi(t lambda)|^2 has certified geometric tails.
    """
    if psi.decay is None:
        raise NormsError(f"symbol {psi.name} carries no decay certificate")
    e0, ei, c = psi.decay.eps0, psi.decay.eps_inf, psi.decay.real_axis_constant
    if not (e0 > theta and ei > -theta):
        raise NormsError("certificate does not support this weight theta")
    if quad is None:
        # range sized so the certified tails undercut tail_rtol with margin,
        # assuming the integral itself is not much below c^2 * s-range mass
        s_lo = (0.01 * tail_rtol * (e0 - theta) / max(c, 1e-300) ** 2) \
            ** (1.0 / (2 * (e0 - theta))) if np.isfinite(e0) else 2.0**-10
        s_hi = (max(c, 1e-300) ** 2 / (0.01 * tail_rtol * (ei + theta))) \
            ** (1.0 / (2 * (ei + theta))) if np.isfinite(ei) else 2.0**10
        quad = QuadratureSpec(t_lo=min(s_lo, 2.0**-10) / op.lambda_max,
                              t_hi=max(s_hi, 2.0**10) / op.lambda_min_positive)
    t, du = quad.nodes()
    pvals = _dilation_table(op, psi, t)
    nz = op.nonzero
    # certified tails of int t^(-2 theta) |psi(t lambda)|^2 dt/t, relative to
    # the computed per-eigenvalue integral
    if np.isfinite(e0) and np.isfinite(ei) and np.any(nz):
        lam = _spectral_argument(op)[nz]
        integ = (du[:, None] * t[:, None] ** (-2 * theta)
                 * np.abs(pvals[:, nz]) ** 2).sum(axis=0)
        s_lo = t[0] * lam
        s_hi = t[-1] * lam
        tail = lam ** (2 * theta) * (
            c**2 * s_lo ** (2 * (e0 - theta)) / (2 * (e0 - theta))
            + c**2 * s_hi ** (-2 * (ei + theta)) / (2 * (ei + theta)))
        rel = float(np.max(tail / np.maximum(integ, 1e-300)))
        if rel > tail_rtol:
            raise NormsError(f"quadrature tail {rel:.2e} above tolerance {tail_rtol:.2e}; "
                             "widen the t-range")
    # pointwise square function: S(u)^2 = sum_j du t_j^(-2 theta) |psi(t_j A)x (u)|^2
    fields = spectral_multiplier(op, (du[:, None] ** 0.5) * t[:, None] ** (-theta) * pvals, x)
    return lp_norm(np.sqrt(np.sum(np.abs(fields) ** 2, axis=0)), pnorm, op.measure)


# -- Besov-type norms -----------------------------------------------------------

def _lq_combine(values: np.ndarray, q) -> float:
    if q == np.inf or q == "inf":
        return float(np.max(values)) if values.size else 0.0
    q = float(q)
    if q < 1:
        raise NormsError("q must be >= 1 or inf")
    return float(np.sum(values**q) ** (1.0 / q))


def besov_discrete_norm(op, p: PartitionOfUnity, x, theta: float, q, pnorm=2) -> float:
    """( sum_n (2^(n theta) ||window_n(A) x||_p)^q )^(1/q); sup for q = inf."""
    indices, ys = spectral_blocks(op, p, x)
    return _lq_combine(_block_weights(indices, theta) * lp_norm(ys, pnorm, op.measure), q)


def besov_continuous_norm(op: ModelOperator, x, theta: float, q, f: Symbol,
                          pnorm=2, quad: QuadratureSpec | None = None) -> float:
    """( int (t^-theta ||f(tA)x||_p)^q dt/t )^(1/q) by log-trapezoid.

    Admitted f: compactly supported window symbols, psi_exp with a > theta,
    or res_frac t^a (1+t)^-b with 0 < a - theta < b (the block-summed
    multiplier criterion holds for these); anything else needs a decay
    certificate with eps0 > theta.
    """
    _check_besov_symbol(f, theta)
    if quad is None:
        quad = QuadratureSpec.cover(op)
    t, du = quad.nodes()
    norms = lp_norm(spectral_multiplier(op, _dilation_table(op, f, t), x), pnorm, op.measure)
    if q == np.inf or q == "inf":
        return float(np.max(t**-theta * norms))
    qf = float(q)
    vals = du * (t**-theta * norms) ** qf
    return float(np.sum(vals) ** (1.0 / qf))


def _check_besov_symbol(f: Symbol, theta: float):
    if f.name.endswith("_window"):
        return
    if f.name == "psi_exp" and f.params["a"] > theta:
        return
    if f.name == "res_frac" and 0 < f.params["a"] - theta < f.params["b"]:
        return
    if f.decay is not None and f.decay.eps0 > theta:
        return
    raise NormsError(
        f"symbol {f.name} is not admitted for continuous Besov weight theta={theta}")


# -- K-functional and real interpolation ----------------------------------------

def _diagonal_data(op: ModelOperator, x):
    """The nonzero eigenvalues and the moduli of x's coefficients on them."""
    nz = op.nonzero
    return _spectral_argument(op)[nz], np.abs(op.coefficients(x)[nz])


def k_functional(op: ModelOperator, x, t, theta0: float, theta1: float,
                 pnorm=2):
    """K(t, x; theta0, theta1) = inf over x = x0 + x1 of
    ||A^theta0 x0||_2 + t ||A^theta1 x1||_2, on the injective part.

    t is a number (K is returned as a float) or a 1-D array (K at every
    entry, as an array, from one coefficient transform).

    Only the Hilbert path p = 2 is supported.  In diagonal coordinates the
    objective ||u y|| + t ||v (a - y)||, u = lam^theta0, v = lam^theta1, is
    convex in y and differentiable unless y = 0 or y = a; its stationary
    points lie on y = a/(1 + c rho), rho = (u/v)^2.  Along that path
    F(c) = mu + t nu (mu = ||u y||, nu = ||v (a - y)||) has F' = -S r/(mu nu),
    S > 0, with the residual r = nu - c t mu = c mu (g - t), g = nu/(c mu).
    g^2 is the mean of rho_k under the weights (u_k a_k/(1 + c rho_k))^2,
    which shift toward smaller rho as c grows, so g is nonincreasing and r
    changes sign at most once, from + to -: F falls, then rises.  K is F at
    that sign change, or, without one, a boundary split (x0 = x or x1 = x).
    The root is bracketed on a log c-grid and refined by a fixed number of
    bisections in ln c.
    """
    if pnorm != 2:
        raise NormsError("K-functional is implemented on the p = 2 path only")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise NormsError("K-functional times must be a number or a 1-D array")
    if np.any(ts <= 0):
        raise NormsError("K-functional time must be > 0")
    lam, a = _diagonal_data(op, x)
    k = _k_functional_diagonal(lam, a, ts.reshape(-1), theta0, theta1)
    return float(k[0]) if ts.ndim == 0 else k


def _k_functional_diagonal(lam, a, t, theta0: float, theta1: float) -> np.ndarray:
    """K at every entry of the 1-D array t, from the nonzero eigenvalues lam
    and coefficient moduli a (see k_functional for the method)."""
    if a.size == 0:
        return np.zeros(t.shape)
    u = lam**theta0
    v = lam**theta1
    ratio2 = (u / v) ** 2
    ua, vr = u * a, v * a * ratio2

    def split(c):
        # mu^2 = ||u y||^2 and (nu/c)^2 = ||v (a - y)||^2/c^2 at y = a/(1 + c rho);
        # with a - y = c a rho/(1 + c rho) there is no cancellation at extreme c
        denom = 1.0 + c[:, None] * ratio2
        return np.sum((ua / denom) ** 2, axis=1), np.sum((vr / denom) ** 2, axis=1)

    # (mu, nu) do not depend on t: one grid serves every t, and r > 0 reads
    # (nu/c)^2 > t^2 mu^2.  Each t gets the half-decade cell ending at its
    # first node with r <= 0 (so a root on a node is still an interior
    # candidate); without a sign change any cell will do, as a boundary
    # split wins
    cs = np.logspace(-30, 30, 121)
    mu2, nuc2 = split(cs)
    lo = np.log(cs[(nuc2 <= t[:, None] ** 2 * mu2).argmax(axis=1).clip(1) - 1])
    step = 0.5 * np.log(10.0)
    for _ in range(30):      # |ln c - ln c*| < 1.1e-9: K exact to second order
        step *= 0.5
        mu2, nuc2 = split(np.exp(lo + step))
        lo = np.where(nuc2 > t**2 * mu2, lo + step, lo)
    c = np.exp(lo + step)
    mu2, nuc2 = split(c)
    boundary = np.minimum(np.sqrt(np.sum(ua**2)),               # x0 = x
                          t * np.sqrt(np.sum((v * a) ** 2)))    # x1 = x
    return np.minimum(np.sqrt(mu2) + t * c * np.sqrt(nuc2), boundary)


def k_functional_bruteforce(op: ModelOperator, x, t: float, theta0: float,
                            theta1: float, rounds: int = 16, grid: int = 7) -> float:
    """Independent oracle: shrinking box grid search over diagonal splits.

    Each round grids the current box, keeps the best point and re-centers
    a box of +-1.5 cells around it, widening any side where the best point
    is pinned to a non-domain box edge (drifting valley).  Exponential in
    the dimension; intended for n <= 6.

    Resolution caveat: when the true minimizer sits within one grid cell
    of the corner split y = a (or y = 0), the second norm term is conical
    there and the sub-corner improvement can be thinner than any feasible
    grid; the oracle then returns the corner value.  Agreement checks
    should use instances in the balanced regime (t within a couple of
    octaves of ||x||_0 / ||x||_1 and interior optimum), where the
    objective is locally quadratic and the search converges.
    """
    lam, a = _diagonal_data(op, x)
    n = a.size
    if n > 6:
        raise NormsError("brute-force oracle is restricted to n <= 6")
    u, v = lam**theta0, lam**theta1
    lo = np.zeros(n)
    hi = a.copy()
    best_y = None
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], grid) for k in range(n)]
        # both squared norms are sums of one term per coordinate: outer sums
        # over the axes give them on the (grid,) * n box without a point list
        sq0 = functools.reduce(np.add.outer, [(ax * u[k]) ** 2 for k, ax in enumerate(axes)])
        sq1 = functools.reduce(np.add.outer,
                               [((a[k] - ax) * v[k]) ** 2 for k, ax in enumerate(axes)])
        idx = np.unravel_index(np.argmin(np.sqrt(sq0) + t * np.sqrt(sq1)), sq0.shape)
        best_y = np.array([ax[i] for ax, i in zip(axes, idx)])
        span = (hi - lo) / (grid - 1)
        # re-center; a best point pinned to a box edge that is not the
        # domain boundary means the minimizer drifted (narrow valley), so
        # that side widens instead of shrinking
        at_edge = ((best_y <= lo + 1e-30) & (lo > 1e-30)) \
            | ((best_y >= hi - 1e-30) & (hi < a - 1e-30))
        width = np.where(at_edge, 4.0 * span, 1.5 * span)
        lo = np.maximum(best_y - width, 0.0)
        hi = np.minimum(best_y + width, a)
    return float(np.sqrt(((best_y * u) ** 2).sum())
                 + t * np.sqrt((((a - best_y) * v) ** 2).sum()))


def real_interpolation_norm(op: ModelOperator, x, vartheta: float, q,
                            theta0: float = 0.0, theta1: float = 1.0,
                            quad: QuadratureSpec | None = None,
                            tail_rtol: float = 1e-9) -> float:
    """( int (t^-vartheta K(t,x))^q dt/t )^(1/q) by log-trapezoid.

    Tails are certified by K(t) <= min(||A^theta0 x||, t ||A^theta1 x||):
    below t_lo the integrand is bounded by (t^(1-vartheta) ||x||_1)^q and
    above t_hi by (t^-vartheta ||x||_0)^q, both geometric.
    """
    if not (0 < vartheta < 1):
        raise NormsError("vartheta must lie in (0, 1)")
    lam, a = _diagonal_data(op, x)
    if a.size == 0:
        return 0.0
    n0 = float(np.sqrt(np.sum((lam**theta0 * a) ** 2)))
    n1 = float(np.sqrt(np.sum((lam**theta1 * a) ** 2)))
    if n0 == 0.0 or n1 == 0.0:
        return 0.0
    auto = quad is None
    if auto:
        # size the range from the envelope K(t) <= min(n0, t n1): its
        # integral M_env is closed-form and bounds the true one from above
        qf0 = 2.0 if q in (np.inf, "inf") else float(q)
        center = n0 / max(n1, 1e-300)
        m_env = n0**qf0 * center ** (-vartheta * qf0) \
            * (1.0 / ((1 - vartheta) * qf0) + 1.0 / (vartheta * qf0))
        budget = tail_rtol * m_env / 100.0
        t_lo = (budget * (1 - vartheta) * qf0) ** (1.0 / ((1 - vartheta) * qf0)) \
            / n1 ** (1.0 / (1 - vartheta))
        t_hi = (n0**qf0 / (budget * vartheta * qf0)) ** (1.0 / (vartheta * qf0))
        quad = QuadratureSpec(t_lo=min(t_lo, center * 1e-4),
                              t_hi=max(t_hi, center * 1e4),
                              nodes_per_decade=16)
    for _ in range(4):
        t, du = quad.nodes()
        kvals = _k_functional_diagonal(lam, a, t, theta0, theta1)
        if q == np.inf or q == "inf":
            return float(np.max(t**-vartheta * kvals))
        qf = float(q)
        main = float(np.sum(du * (t**-vartheta * kvals) ** qf))
        tail_lo = (t[0] ** (1 - vartheta) * n1) ** qf / ((1 - vartheta) * qf)
        tail_hi = (t[-1] ** -vartheta * n0) ** qf / (vartheta * qf)
        if (tail_lo + tail_hi) <= tail_rtol * max(main, 1e-300):
            return float(main ** (1.0 / qf))
        if not auto:
            break
        quad = QuadratureSpec(quad.t_lo * 1e-5, quad.t_hi * 1e5,
                              quad.nodes_per_decade)
    raise NormsError("interpolation quadrature tails above tolerance; widen the range")
