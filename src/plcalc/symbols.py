"""Multiplier symbols and their function-space norms.

A Symbol is a scalar function f on (0,inf) bundled with

  * optional evaluation on complex sector points (for contour quadrature),
  * derivatives d^k f / dt^k up to order 8 (closed form for shipped kinds,
    log-scale central differences otherwise),
  * an optional decay certificate (eps0, eps_inf, C, sigma_max) asserting
    |f(t)| <= C min(t^eps0, t^-eps_inf) on rays of angle up to sigma_max.

The norm estimators are grid estimators with a refinement stability gate:

  classical multiplier seminorm   sup_{t, k<=beta} |t^k f^(k)(t)|
  smoothness norm (alpha, M)      ||g||_inf + int_{|h|<=1} |h|^-alpha
                                      sup_x |D_h^M g(x)|  dh/|h|
  dyadic multiplier norm          the smoothness norm of f(e^x)
  block-summed multiplier norm    sum_n ||f * window_n|| over dyadic blocks

where D_h^M is the M-fold iterated difference,
D_h^1 g(x) = g(x+h) - g(x).  The estimators are meant for ratios and
finiteness checks, not certified bounds; instability under refinement
(or under window growth) raises instead of returning a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import check_spec_keys
from .partitions import HOMOGENEOUS, PartitionOfUnity

_LN2 = float(np.log(2.0))

DERIV_MAX_ORDER = 8
STABILITY_RTOL = 0.05      # refinement gate: <5% change under 2x refinement
CERT_GRID_POINTS = 200     # log-grid sample backing each decay certificate
CERT_SLACK = 1.01


class SymbolError(ValueError):
    pass


class NormStabilityError(RuntimeError):
    """A norm estimate failed its grid-refinement (or window) stability gate."""


@dataclass(frozen=True)
class DecayCertificate:
    """|f(t)| <= C min(t^eps0, t^-eps_inf) on rays |arg| <= sigma_max.

    ``C`` holds over the whole certified sector (contour tails);
    ``c_real`` is the tighter constant on the positive axis (real-axis
    quadrature tails).
    """

    eps0: float
    eps_inf: float
    C: float
    sigma_max: float = 0.0   # 0 means certified on (0, inf) only
    c_real: float | None = None

    @property
    def real_axis_constant(self) -> float:
        return self.C if self.c_real is None else self.c_real

    def bound(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            return self.C * np.minimum(r**self.eps0, r**-self.eps_inf)


def _fd_weights(order: int, stencil: np.ndarray) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at 0 on the stencil."""
    n = stencil.size
    a = np.vander(stencil, n, increasing=True).T   # a[i, j] = stencil[j]**i
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(a, rhs)


def _fd_derivative(f: Callable, k: int, t: np.ndarray) -> np.ndarray:
    """Central differences on log scale (step ~ t), one Richardson step."""
    t = np.asarray(t, dtype=float)
    half = (k + 5) // 2 + 1
    offsets = np.arange(-half, half + 1, dtype=float)
    w = _fd_weights(k, offsets)
    delta = (2.2e-16) ** (1.0 / (k + 4))

    def stencil_eval(d):
        h = t * d
        vals = np.stack([np.asarray(f(t + j * h), dtype=complex) for j in offsets])
        return (w[:, None] * vals).sum(axis=0) / h**k

    coarse = stencil_eval(2 * delta)
    fine = stencil_eval(delta)
    return (16.0 * fine - coarse) / 15.0


@dataclass
class Symbol:
    """Scalar multiplier with derivative access and decay metadata."""

    evaluate: Callable
    name: str = "symbol"
    params: dict = field(default_factory=dict)
    sector_evaluate: Callable | None = None
    derivative_fn: Callable | None = None      # (k, t) -> values, analytic
    decay: DecayCertificate | None = None
    homogeneous_scaling: bool = False

    def __call__(self, t):
        return self.evaluate(np.asarray(t, dtype=float))

    def derivative(self, k: int, t):
        if k < 0 or k > DERIV_MAX_ORDER:
            raise SymbolError(f"derivative order must be in [0, {DERIV_MAX_ORDER}]")
        if k == 0:
            return self(t)
        if self.derivative_fn is not None:
            return self.derivative_fn(k, np.asarray(t, dtype=float))
        return _fd_derivative(self.evaluate, k, np.asarray(t, dtype=float))

    def on_sector(self, z):
        if self.sector_evaluate is None:
            raise SymbolError(f"symbol {self.name} has no sector-analytic evaluation")
        return self.sector_evaluate(np.asarray(z, dtype=complex))


def _certify(f: Callable, eps0: float, eps_inf: float, sigma_max: float) -> DecayCertificate:
    """Fit the certificate constants on a log grid sample."""
    r = np.logspace(-8, 8, CERT_GRID_POINTS)
    envelope = np.minimum(r**eps0, r**-eps_inf)
    angles = [0.0] if sigma_max == 0.0 else [0.0, sigma_max / 2, sigma_max]
    c = c_real = 0.0
    for ang in angles:
        vals = np.abs(np.asarray(f(r * np.exp(1j * ang)), dtype=complex))
        worst = float(np.max(vals / envelope))
        c = max(c, worst)
        if ang == 0.0:
            c_real = worst
    return DecayCertificate(eps0, eps_inf, CERT_SLACK * c, sigma_max,
                            c_real=CERT_SLACK * c_real)


def _sympy_derivatives(expr_builder) -> Callable:
    """Lambdified symbolic derivatives of expr_builder(t, sympy), cached per order."""
    import sympy as sp

    t = sp.Symbol("t", positive=True)
    expr = expr_builder(t, sp)
    cache: dict = {}

    def deriv(k, x):
        if k not in cache:
            cache[k] = sp.lambdify(t, sp.diff(expr, t, k), modules="numpy")
        x = np.asarray(x, dtype=float)
        return np.asarray(cache[k](x), dtype=complex) + np.zeros_like(x, dtype=complex)

    return deriv


def make_symbol(kind: str, **params) -> Symbol:
    """Shipped multiplier kinds.

    power        t^theta                      (params: theta)
    rho          t (1+t)^-2
    exp          e^-t
    psi_exp      t^a exp(-t^b)                (a, b > 0; a/b > theta for use
                                               at weight theta)
    psi_res      t^a (lambda0 - t)^-b         (lambda0 off [0,inf),
                                               theta < a < b + theta)
    res_frac     t^a (1+t)^-b                 (0 < a - theta < b)
    imag_power   t^(i s)                      (params: s)
    """
    if kind == "power":
        theta = float(params["theta"])

        def d_power(k, x):
            coef = 1.0
            for j in range(k):
                coef *= theta - j
            return coef * np.asarray(x, dtype=complex) ** (theta - k)

        return Symbol(
            evaluate=lambda t: t**theta,
            name="power", params={"theta": theta},
            sector_evaluate=lambda z: np.exp(theta * np.log(z)),
            derivative_fn=d_power,
            homogeneous_scaling=True,
        )

    if kind == "rho":
        def d_rho(k, x):
            x = np.asarray(x, dtype=complex)
            sign = (-1.0) ** k
            return sign * (math.factorial(k) * (1 + x) ** (-1 - k)
                           - math.factorial(k + 1) * (1 + x) ** (-2 - k))

        f = lambda z: z * (1 + z) ** -2
        return Symbol(
            evaluate=f, name="rho", params={},
            sector_evaluate=f,
            derivative_fn=d_rho,
            decay=_certify(f, 1.0, 1.0, sigma_max=np.pi / 2 * 0.98),
        )

    if kind == "exp":
        return Symbol(
            evaluate=lambda t: np.exp(-t), name="exp", params={},
            sector_evaluate=lambda z: np.exp(-z),
            derivative_fn=lambda k, x: (-1.0) ** k * np.exp(-np.asarray(x, dtype=complex)),
        )

    if kind == "psi_exp":
        a, b = float(params["a"]), float(params["b"])
        theta = float(params.get("theta", 0.0))
        if a <= 0 or b <= 0 or a / b <= theta:
            raise SymbolError(f"psi_exp requires a, b > 0 and a/b > theta, got a={a}, b={b}")
        sigma_max = min(np.pi / 2, np.pi / (2 * b)) * 0.9

        def f_sec(z):
            z = np.asarray(z, dtype=complex)
            return np.exp(a * np.log(z)) * np.exp(-np.exp(b * np.log(z)))

        return Symbol(
            evaluate=lambda t: t**a * np.exp(-(t**b)),
            name="psi_exp", params={"a": a, "b": b},
            sector_evaluate=f_sec,
            derivative_fn=_sympy_derivatives(lambda t, sp: t**a * sp.exp(-(t**b))),
            decay=_certify(f_sec, a, a + 1.0, sigma_max),
        )

    if kind == "psi_res":
        a, b = float(params["a"]), float(params["b"])
        lam0 = complex(params["lambda0"])
        theta = float(params.get("theta", 0.0))
        if lam0.imag == 0 and lam0.real >= 0:
            raise SymbolError("psi_res requires lambda0 off [0, inf)")
        if b <= 0 or not (theta < a < b + theta):
            raise SymbolError(f"psi_res requires theta < a < b + theta, got a={a}, b={b}")

        def f_sec(z):
            z = np.asarray(z, dtype=complex)
            return z**a * (lam0 - z) ** (-b)

        return Symbol(
            evaluate=f_sec, name="psi_res",
            params={"a": a, "b": b, "lambda0": lam0},
            sector_evaluate=f_sec,
            derivative_fn=_sympy_derivatives(
                lambda t, sp: t**a * (sp.Float(lam0.real) + sp.I * sp.Float(lam0.imag) - t) ** (-b)),
            decay=_certify(f_sec, a, b - a, sigma_max=0.3),
        )

    if kind == "res_frac":
        a, b = float(params["a"]), float(params["b"])
        theta = float(params.get("theta", 0.0))
        if not (0 < a - theta < b):
            raise SymbolError(f"res_frac requires 0 < a - theta < b, got a={a}, b={b}")

        def f_sec(z):
            z = np.asarray(z, dtype=complex)
            return z**a * (1 + z) ** (-b)

        return Symbol(
            evaluate=lambda t: t**a * (1 + t) ** (-b),
            name="res_frac", params={"a": a, "b": b},
            sector_evaluate=f_sec,
            derivative_fn=_sympy_derivatives(lambda t, sp: t**a * (1 + t) ** (-b)),
            decay=_certify(f_sec, a, b - a, sigma_max=np.pi / 2 * 0.98),
        )

    if kind == "imag_power":
        s = float(params["s"])

        def d_imag(k, x):
            coef = 1.0 + 0j
            for j in range(k):
                coef *= 1j * s - j
            x = np.asarray(x, dtype=complex)
            return coef * x ** (1j * s - k)

        return Symbol(
            evaluate=lambda t: np.asarray(t, dtype=complex) ** (1j * s),
            name="imag_power", params={"s": s},
            sector_evaluate=lambda z: np.exp(1j * s * np.log(z)),
            derivative_fn=d_imag,
            homogeneous_scaling=True,
        )

    raise SymbolError(f"unknown symbol kind {kind!r}")


def window_symbol(p: PartitionOfUnity, n: int = 0) -> Symbol:
    """A partition window as a Symbol (compactly supported, all derivatives)."""
    lo, _ = p.support(n)
    return Symbol(
        evaluate=lambda t: p.window(n, t),
        name=f"{p.kind}_window", params={"n": n},
        derivative_fn=lambda k, t: p.window_derivative(n, k, t),
        decay=DecayCertificate(eps0=np.inf, eps_inf=np.inf, C=1.0) if lo > 0 else None,
    )


# Parameters each shipped kind reads from its JSON spec, besides "kind".
_SPEC_KEYS = {"power": ("theta",), "rho": (), "exp": (), "psi_exp": ("a", "b", "theta"),
              "psi_res": ("a", "b", "lambda0", "theta"), "res_frac": ("a", "b", "theta"),
              "imag_power": ("s",)}


def symbol_from_spec(spec: dict) -> Symbol:
    """Build a shipped symbol from its JSON description.

    Raises SpecKeyError for a key the kind does not read.
    """
    spec = dict(spec)
    kind = spec.pop("kind")
    # an unknown kind is left to make_symbol to reject
    check_spec_keys(spec, _SPEC_KEYS.get(kind, spec), f"{kind} symbol spec")
    return make_symbol(kind, **spec)


@dataclass
class NormEstimate:
    """Value of a grid-estimated norm plus the grids that produced it."""

    value: float
    method: dict = field(default_factory=dict)

    def __float__(self):
        return float(self.value)


def iterated_difference(g: Callable, M: int, h, x) -> np.ndarray:
    """D_h^M g(x) = sum_j (-1)^(M-j) C(M,j) g(x + j h); broadcasts over h and x.

    The h-free term g(x) (j = 0) is evaluated once, on x's own shape.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    out = np.zeros(np.broadcast_shapes(h.shape, x.shape), dtype=complex)
    out += (-1.0) ** M * np.asarray(g(x), dtype=complex)
    for j in range(1, M + 1):
        out += (-1.0) ** (M - j) * math.comb(M, j) * np.asarray(g(x + j * h), dtype=complex)
    return out


def difference_shift(g: Callable, y: float) -> Callable:
    """Translation tau_y g = g(. + y), companion of iterated_difference."""
    return lambda x: g(np.asarray(x, dtype=float) + y)


def _besov_value(g, alpha, M, window, n_x, n_h, h_min=1e-6):
    """One evaluation of the smoothness-norm estimator on fixed grids."""
    x_lo, x_hi = window
    xg = np.linspace(x_lo, x_hi, n_x)
    sup_norm = float(np.max(np.abs(np.asarray(g(xg), dtype=complex))))
    hs = np.exp(np.linspace(np.log(h_min), 0.0, n_h))
    du = -np.log(h_min) / (n_h - 1)
    integral = 0.0
    for sign in (1.0, -1.0):
        d = iterated_difference(g, M, sign * hs[:, None], xg[None, :])
        sups = np.max(np.abs(d), axis=1)
        vals = hs**-alpha * sups
        integral += float(du * (np.sum(vals) - 0.5 * (vals[0] + vals[-1])))
    return sup_norm + integral, sup_norm


def besov_norm_inf_1(g: Callable, alpha: float, M: int | None = None,
                     window: tuple = (-12.0, 12.0), n_x: int = 512,
                     n_h: int = 145, check_stability: bool = True) -> NormEstimate:
    """Smoothness norm ||g||_inf + int |h|^-alpha sup_x |D_h^M g| dh/|h| on a window.

    M must exceed alpha (the iterated difference annihilates polynomials of
    degree < M, so the integrand vanishes at h -> 0 for smooth g).  The
    |h| < 1e-6 tail of the integral is dropped: it is O(h_min^(M-alpha))
    for g with bounded M-th derivative.  With the stability gate on, the
    value is the refined one; ``method`` keeps the coarse value and their
    relative change ``refine_rel``.
    """
    if alpha <= 0:
        raise SymbolError("alpha must be > 0")
    if M is None:
        M = int(np.floor(alpha)) + 1
    if M <= alpha:
        raise SymbolError(f"need M > alpha, got M={M}, alpha={alpha}")
    if window[1] <= window[0]:
        raise SymbolError("empty evaluation window")
    value, _ = _besov_value(g, alpha, M, window, n_x, n_h)
    method = {"alpha": alpha, "M": M, "window": list(window), "n_x": n_x, "n_h": n_h}
    if check_stability:
        refined, _ = _besov_value(g, alpha, M, window, 2 * n_x, 2 * n_h)
        rel = abs(refined - value) / max(abs(refined), 1e-300)
        method["coarse"] = value
        method["refine_rel"] = rel
        if rel > STABILITY_RTOL:
            raise NormStabilityError(
                f"smoothness norm unstable under grid refinement ({rel:.1%} change)")
        value = refined
    return NormEstimate(value, method)


def mihlin_seminorm_classical(f: Symbol, beta: int, scale: float = 1.0,
                              points_per_decade: int = 64) -> NormEstimate:
    """sup over t and k <= beta of |t^k f^(k)(t)| on a wide log grid.

    The grid spans scale * [2^-40, 2^40] and is refined once; a change
    above the stability gate raises NormStabilityError.
    """
    if beta < 0:
        raise SymbolError("beta must be >= 0")
    decades = int(np.ceil(80 * np.log10(2.0)))

    def estimate(ppd):
        t = scale * np.logspace(-40 * np.log10(2.0), 40 * np.log10(2.0), decades * ppd)
        best = 0.0
        for k in range(beta + 1):
            vals = np.abs(np.asarray(f.derivative(k, t), dtype=complex))
            best = max(best, float(np.max(t**k * vals)))
        return best

    v1 = estimate(points_per_decade)
    v2 = estimate(2 * points_per_decade)
    rel = abs(v2 - v1) / max(v2, 1e-300)
    if rel > STABILITY_RTOL:
        raise NormStabilityError(
            f"classical multiplier seminorm unstable under refinement ({rel:.1%})")
    return NormEstimate(v2, {"beta": beta, "scale": scale,
                             "points_per_decade": 2 * points_per_decade})


def mihlin_norm(f: Symbol | Callable, alpha: float, M: int | None = None,
                window: tuple = (-12.0, 12.0), n_x: int = 512, n_h: int = 145,
                check_window_growth: bool = True) -> NormEstimate:
    """Dyadic multiplier norm: smoothness norm of f(e^x) on a log window.

    In calculus contexts the window should cover
    [log(lambda_min) - 3, log(lambda_max) + 3] of the target operator.
    Besides the grid-refinement gate, the estimate is recomputed on a
    window widened by 1 on each side; growth beyond the gate means f is
    not multiplier-bounded near the window (e.g. f(t) = t) and raises.
    The relative change under widening is kept as ``method["widen_rel"]``.
    """
    ev = f.evaluate if isinstance(f, Symbol) else f
    g = lambda x: np.asarray(ev(np.exp(np.asarray(x, dtype=float))), dtype=complex)
    est = besov_norm_inf_1(g, alpha, M, window, n_x, n_h)
    if check_window_growth:
        wide = (window[0] - 1.0, window[1] + 1.0)
        est_wide = besov_norm_inf_1(g, alpha, M, wide, n_x, n_h, check_stability=False)
        rel = abs(est_wide.value - est.value) / max(est_wide.value, 1e-300)
        est.method["widen_rel"] = rel
        if rel > STABILITY_RTOL:
            raise NormStabilityError(
                f"multiplier norm grows with the window ({rel:.1%} under widening); "
                "symbol is not multiplier-bounded on this range")
    est.method["kind"] = "mihlin"
    est.method["window"] = list(window)
    return est


def mihlin_l1_norm(f: Symbol, alpha: float, partition: PartitionOfUnity,
                   M: int | None = None, n_range: tuple | None = None,
                   n_x: int = 256, n_h: int = 97) -> NormEstimate:
    """Block-summed multiplier norm: sum_n ||f * window_n|| over dyadic blocks.

    Needs either an explicit ``n_range`` or a decay certificate on f to
    bound the truncation tail; blocks on which f vanishes identically are
    skipped.  Without a certificate, a non-negligible tail at the
    truncation edge raises.
    """
    if partition.kind != HOMOGENEOUS:
        raise SymbolError("block-summed norm uses the homogeneous dyadic partition")
    if M is None:
        M = int(np.floor(alpha)) + 1
    explicit_range = n_range is not None
    compact = f.decay is not None and not np.isfinite(f.decay.eps0)
    if n_range is None:
        if f.decay is not None and np.isfinite(f.decay.eps0) and f.decay.eps0 > 0:
            # range beyond which the certified envelope is below 2^-46
            n_lo = int(np.floor(-(np.log2(max(f.decay.C, 1e-300)) + 46) / f.decay.eps0)) - 1
            n_hi = int(np.ceil((np.log2(max(f.decay.C, 1e-300)) + 46) / f.decay.eps_inf)) + 1
            n_range = (max(n_lo, -60), min(n_hi, 60))
        else:
            n_range = (-60, 60)   # compact support or uncertified: rely on skipping
    total = 0.0
    blocks: dict = {}
    for n in range(n_range[0], n_range[1] + 1):
        lo, hi = partition.support(n)
        sample = np.abs(np.asarray(f(np.linspace(lo, hi, 33)), dtype=complex))
        if float(np.max(sample)) < 1e-300:
            continue

        def block(x, n=n):
            t = np.exp(np.asarray(x, dtype=float))
            return np.asarray(f(t), dtype=complex) * partition.window(n, t)

        win = ((n - 1) * _LN2 - 1.5, (n + 1) * _LN2 + 1.5)
        est = besov_norm_inf_1(block, alpha, M, win, n_x, n_h, check_stability=False)
        blocks[n] = est.value
        total += est.value
    if f.decay is None and not explicit_range:
        ns = sorted(blocks)
        edge = max(blocks[ns[0]], blocks[ns[-1]]) if ns else 0.0
        if edge > 1e-3 * max(total, 1e-300):
            raise SymbolError(
                "no decay certificate and non-negligible tail at the truncation edge")
        tail = edge
    elif f.decay is None or compact:
        tail = 0.0
    else:
        # geometric tail from the certificate envelope; the block-norm to
        # envelope proportionality is calibrated on the outermost blocks
        ns = sorted(blocks)
        cal = 1.0
        for n in (ns[0], ns[-1]) if ns else ():
            env = float(f.decay.bound(2.0**n))
            if env > 0 and blocks[n] > 0:
                cal = max(cal, blocks[n] / env)
        e0, ei = f.decay.eps0, f.decay.eps_inf
        tail = 2 * cal * f.decay.C * (
            2.0 ** (n_range[0] * e0) / (1 - 2.0**-e0)
            + 2.0 ** (-n_range[1] * ei) / (1 - 2.0**-ei))
    return NormEstimate(total, {"kind": "mihlin_l1", "alpha": alpha, "M": M,
                                "n_range": list(n_range), "blocks": blocks,
                                "tail_bound": tail})
