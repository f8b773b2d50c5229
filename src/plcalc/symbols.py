"""Multiplier symbols and their function-space norms.

A Symbol is a scalar function f on (0,inf) bundled with

  * optional evaluation on complex sector points (for contour quadrature),
  * an optional decay certificate (eps0, eps_inf, C, sigma_max) asserting
    |f(t)| <= C min(t^eps0, t^-eps_inf) on rays of angle up to sigma_max.

The one multiplier-class (Hoermander-Mihlin type) estimator is a grid
estimator with a refinement stability gate:

  smoothness norm (alpha, M)      ||g||_inf + int_{|h|<=1} |h|^-alpha
                                      sup_x |D_h^M g(x)|  dh/|h|
  dyadic multiplier norm          the smoothness norm of f(e^x) (mihlin_norm)

where D_h^M is the M-fold iterated difference,
D_h^1 g(x) = g(x+h) - g(x).  The estimate is meant for ratios and
finiteness checks, not a certified bound; instability under refinement
(or under window growth) raises instead of returning a number.

The smoothness norm reduces a FunctionFamily in one sweep of its (h, x)
grid: per grid block and shift the family builds one table that no
member's coefficients enter (for the dyadic samples of the converse
multiplier check: the bump values and dyadic indices), and every member
is read off it.  A plain callable is a family of one whose table is its
values.  Each member then runs the arithmetic a lone function runs, in
the same order (the iterated difference summed in j order, the row max,
the trapezoid on its own row), so its estimate is bit-identical to the
estimate of that member alone, for any blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import SpecValueError, check_spec_keys, spec_kind, spec_value
from .partitions import PartitionOfUnity

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


@dataclass
class Symbol:
    """Scalar multiplier with optional sector evaluation and decay metadata."""

    evaluate: Callable
    name: str = "symbol"
    params: dict = field(default_factory=dict)
    sector_evaluate: Callable | None = None
    decay: DecayCertificate | None = None

    def __call__(self, t):
        return self.evaluate(np.asarray(t, dtype=float))

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


def make_symbol(kind: str, **params) -> Symbol:
    """Shipped multiplier kinds.

    power        t^theta                      (params: theta)
    rho          t (1+t)^-2
    exp          e^-t
    psi_exp      t^a exp(-t^b)                (a, b > 0)
    psi_res      t^a (lambda0 - t)^-b         (lambda0 off [0,inf), 0 < a < b)
    res_frac     t^a (1+t)^-b                 (0 < a < b)
    imag_power   t^(i s)                      (params: s)

    A symbol takes only its own parameters (_SPEC_KEYS).  Whether it is
    admitted at a weight theta is for the norm that applies the weight to
    decide, from its decay certificate or its parameters.
    """
    if kind not in _SPEC_KEYS:
        raise SymbolError(f"unknown symbol kind {kind!r}")
    unknown = set(params) - set(_SPEC_KEYS[kind])
    if unknown:
        raise SymbolError(f"{kind} takes no parameter(s) {', '.join(sorted(unknown))}")
    if kind == "power":
        theta = float(params["theta"])
        return Symbol(
            evaluate=lambda t: t**theta,
            name="power", params={"theta": theta},
            sector_evaluate=lambda z: np.exp(theta * np.log(z)),
        )

    if kind == "rho":
        f = lambda z: z * (1 + z) ** -2
        return Symbol(
            evaluate=f, name="rho", params={},
            sector_evaluate=f,
            decay=_certify(f, 1.0, 1.0, sigma_max=np.pi / 2 * 0.98),
        )

    if kind == "exp":
        return Symbol(
            evaluate=lambda t: np.exp(-t), name="exp", params={},
            sector_evaluate=lambda z: np.exp(-z),
        )

    if kind == "psi_exp":
        a, b = float(params["a"]), float(params["b"])
        if a <= 0 or b <= 0:
            raise SymbolError(f"psi_exp requires a, b > 0, got a={a}, b={b}")
        sigma_max = min(np.pi / 2, np.pi / (2 * b)) * 0.9
        f_sec = lambda z: np.exp(a * np.log(z)) * np.exp(-np.exp(b * np.log(z)))
        return Symbol(
            evaluate=lambda t: t**a * np.exp(-(t**b)),
            name="psi_exp", params={"a": a, "b": b},
            sector_evaluate=f_sec,
            decay=_certify(f_sec, a, a + 1.0, sigma_max),
        )

    if kind == "psi_res":
        a, b = float(params["a"]), float(params["b"])
        lam0 = complex(params["lambda0"])
        if lam0.imag == 0 and lam0.real >= 0:
            raise SymbolError("psi_res requires lambda0 off [0, inf)")
        if not 0 < a < b:
            raise SymbolError(f"psi_res requires 0 < a < b, got a={a}, b={b}")
        f = lambda z: z**a * (lam0 - z) ** -b
        return Symbol(
            evaluate=lambda t: f(np.asarray(t, dtype=complex)), name="psi_res",
            params={"a": a, "b": b, "lambda0": lam0},
            sector_evaluate=f,
            decay=_certify(f, a, b - a, sigma_max=0.3),
        )

    if kind == "res_frac":
        a, b = float(params["a"]), float(params["b"])
        if not 0 < a < b:
            raise SymbolError(f"res_frac requires 0 < a < b, got a={a}, b={b}")
        f = lambda z: z**a * (1 + z) ** -b
        return Symbol(
            evaluate=f, name="res_frac", params={"a": a, "b": b},
            sector_evaluate=f,
            decay=_certify(f, a, b - a, sigma_max=np.pi / 2 * 0.98),
        )

    if kind == "imag_power":
        s = float(params["s"])
        return Symbol(
            evaluate=lambda t: np.asarray(t, dtype=complex) ** (1j * s),
            name="imag_power", params={"s": s},
            sector_evaluate=lambda z: np.exp(1j * s * np.log(z)),
        )


def window_symbol(p: PartitionOfUnity, n: int = 0) -> Symbol:
    """A partition window as a Symbol (compactly supported and C^infinity)."""
    lo, _ = p.support(n)
    return Symbol(
        evaluate=lambda t: p.window(n, t),
        name=f"{p.kind}_window", params={"n": n},
        decay=DecayCertificate(eps0=np.inf, eps_inf=np.inf, C=1.0) if lo > 0 else None,
    )


# The parameters of each shipped kind: all that make_symbol takes, and all that
# its JSON spec holds besides "kind".
_SPEC_KEYS = {"power": ("theta",), "rho": (), "exp": (), "psi_exp": ("a", "b"),
              "psi_res": ("a", "b", "lambda0"), "res_frac": ("a", "b"), "imag_power": ("s",)}


def symbol_from_spec(spec: dict) -> Symbol:
    """Build a shipped symbol from its JSON description.

    Raises SpecKeyError for a key the kind does not read, and
    SpecValueError for a spec that is not an object of a shipped kind or a
    parameter that does not read as a number (complex for ``lambda0``,
    real for the others).
    """
    kind = spec_kind(spec, "symbol")
    if kind not in _SPEC_KEYS:
        raise SpecValueError("kind", "symbol spec", f"unknown symbol kind {kind!r}")
    where = f"{kind} symbol spec"
    params = {key: value for key, value in spec.items() if key != "kind"}
    check_spec_keys(params, _SPEC_KEYS[kind], where)
    return make_symbol(kind, **{key: spec_value(value, complex if key == "lambda0" else float,
                                                key, where) for key, value in params.items()})


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
    return _difference(M, np.asarray(g(x), dtype=complex),
                       (g(x + j * h) for j in range(1, M + 1)))


def _difference(M: int, gx: np.ndarray, shifted) -> np.ndarray:
    """D_h^M g(x) from gx = g(x) and the values g(x + j h), j = 1..M.

    The terms are added in j order, so every caller of the estimator gets
    the same bits for the same values.
    """
    out = (-1.0) ** M * gx
    for j, gj in enumerate(shifted, 1):
        term = (-1.0) ** (M - j) * math.comb(M, j) * np.asarray(gj, dtype=complex)
        term += out   # out + term: the sum is the same either way round
        out = term
    return out


class FunctionFamily:
    """Functions g_0, ..., g_{size-1} evaluated through one shared table.

    ``table(y)`` computes, at the points y, whatever the members have in
    common and does not depend on which member is asked for;
    ``member(table, k)`` reads g_k at those points off the table.  The
    smoothness estimator builds each table once per block of its grid and
    reduces every member from it, so work that does not depend on the
    member is done once, not once per member.

    ``support`` is None, or an interval (lo, hi) in y outside which every
    member reads exactly 0, and also within SUPPORT_MARGIN of either end:
    the estimator then skips the grid points whose differences cannot
    reach it (see _besov_value).
    """

    size: int = 1
    support: tuple[float, float] | None = None

    def table(self, y):
        raise NotImplementedError

    def member(self, table, k: int) -> np.ndarray:
        raise NotImplementedError


class _OneFunction(FunctionFamily):
    """A plain callable as a family of one: its table is its values."""

    def __init__(self, g: Callable):
        self.g = g

    def table(self, y):
        return self.g(y)

    def member(self, table, k: int) -> np.ndarray:
        return table


BLOCK_POINTS = 8192   # points of the (h, x) difference grid evaluated at a time
SUPPORT_MARGIN = 1e-9   # slack of a family's support (FunctionFamily.support)


def _live_columns(xg, support, reach):
    """The slice of the sorted grid xg whose points x can see the support
    (lo, hi) from some x + s, 0 <= s <= reach (reach < 0: reach <= s <= 0),
    with SUPPORT_MARGIN of slack on every side; all of xg without a
    support."""
    if support is None:
        return slice(0, xg.size)
    lo, hi = support
    lo, hi = lo - SUPPORT_MARGIN - max(reach, 0.0), hi + SUPPORT_MARGIN - min(reach, 0.0)
    return slice(int(np.searchsorted(xg, lo, side="right")),
                 int(np.searchsorted(xg, hi, side="left")))


def _besov_value(family: FunctionFamily, alpha, M, window, n_x, n_h, h_min=1e-6):
    """One evaluation of the smoothness-norm estimator on fixed grids.

    Returns the estimate of every member of the family as an array.  The
    (n_h, n_x) difference grid is evaluated in blocks of about BLOCK_POINTS
    points, whole rows each (a row's sup is a max, so the result does not
    depend on the blocking).  Per block and shift j the family's table at
    x + j h is built once and shared by every member; each member then
    runs the same per-point arithmetic, in the same order, as a family of
    one does, so a member's estimate is bit-identical to the estimate of
    that member alone.  The tables at x, which give the sup norms and the
    h-free term of every row, are built once.  Small blocks keep every
    temporary off the allocator's mmap path, whatever the family's size.

    A family with a support is swept, per block and sign of h, only over
    the contiguous columns x where some x + j h (j = 0..M, h in the block)
    comes within SUPPORT_MARGIN of it (_live_columns, with the block's
    largest |h|).  At any other column every g(x + j h) is exactly 0, so
    D_h^M g is exactly 0 there and no row's sup moves; a block with no
    live column has sup 0.  The margin is far above the rounding of
    x + j h, so the estimate keeps every bit of the full sweep.
    """
    x_lo, x_hi = window
    xg = np.linspace(x_lo, x_hi, n_x)
    table_x = family.table(xg)
    gx = [np.asarray(family.member(table_x, k), dtype=complex) for k in range(family.size)]
    sup_norms = np.array([np.max(np.abs(v)) for v in gx])
    hs = np.exp(np.linspace(np.log(h_min), 0.0, n_h))
    du = -np.log(h_min) / (n_h - 1)
    rows = max(1, BLOCK_POINTS // n_x)
    integrals = np.zeros(family.size)
    for sign in (1.0, -1.0):
        sups = np.zeros((family.size, n_h))
        for i in range(0, n_h, rows):
            h = sign * hs[i:i + rows, None]
            live = _live_columns(xg, family.support, M * h[-1, 0])   # the largest |h|
            if live.start >= live.stop:
                continue
            x = xg[live]
            tables = [family.table(x + j * h) for j in range(1, M + 1)]
            for k in range(family.size):
                diff = _difference(M, gx[k][live], (family.member(t, k) for t in tables))
                sups[k, i:i + rows] = np.max(np.abs(diff), axis=1)
        vals = hs**-alpha * sups
        for k in range(family.size):   # the trapezoid on a contiguous row
            integrals[k] += du * (np.sum(vals[k]) - 0.5 * (vals[k, 0] + vals[k, -1]))
    return sup_norms + integrals


def besov_family_norms(family: FunctionFamily, alpha: float, M: int | None = None,
                       window: tuple = (-12.0, 12.0), n_x: int = 512, n_h: int = 145,
                       check_stability: bool = True) -> list[NormEstimate]:
    """besov_norm_inf_1 of every member of a family, one NormEstimate each.

    Each grid is swept once for the whole family (see _besov_value), and
    each member's estimate is bit-identical to besov_norm_inf_1 of that
    member alone.  The refinement gate applies to every member: the first
    member whose estimate changes by more than STABILITY_RTOL raises.
    """
    if alpha <= 0:
        raise SymbolError("alpha must be > 0")
    if M is None:
        M = int(np.floor(alpha)) + 1
    if M <= alpha:
        raise SymbolError(f"need M > alpha, got M={M}, alpha={alpha}")
    if window[1] <= window[0]:
        raise SymbolError("empty evaluation window")
    values = _besov_value(family, alpha, M, window, n_x, n_h).tolist()
    method = {"alpha": alpha, "M": M, "window": list(window), "n_x": n_x, "n_h": n_h}
    if not check_stability:
        return [NormEstimate(value, dict(method)) for value in values]
    refined = _besov_value(family, alpha, M, window, 2 * n_x, 2 * n_h).tolist()
    estimates = []
    for k, (value, fine) in enumerate(zip(values, refined)):
        rel = abs(fine - value) / max(abs(fine), 1e-300)
        if rel > STABILITY_RTOL:
            member = f" of member {k}" if family.size > 1 else ""
            raise NormStabilityError(
                f"smoothness norm{member} unstable under grid refinement ({rel:.1%} change)")
        estimates.append(NormEstimate(fine, {**method, "coarse": value, "refine_rel": rel}))
    return estimates


def besov_norm_inf_1(g: Callable, alpha: float, M: int | None = None,
                     window: tuple = (-12.0, 12.0), n_x: int = 512,
                     n_h: int = 145, check_stability: bool = True) -> NormEstimate:
    """Smoothness norm ||g||_inf + int |h|^-alpha sup_x |D_h^M g| dh/|h| on a window.

    M must exceed alpha (the iterated difference annihilates polynomials of
    degree < M, so the integrand vanishes at h -> 0 for smooth g).  The
    |h| < 1e-6 tail of the integral is dropped: it is O(h_min^(M-alpha))
    for g with bounded M-th derivative.  With the stability gate on, the
    value is the refined one; ``method`` keeps the coarse value and their
    relative change ``refine_rel``.  g is a family of one for
    besov_family_norms.
    """
    return besov_family_norms(_OneFunction(g), alpha, M, window, n_x, n_h, check_stability)[0]


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
