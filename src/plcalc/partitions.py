"""Partitions of unity: dyadic on (0,inf), equidistant on R, even variants.

Everything is built by telescoping one fixed smooth transition function

    chi(t) = g(2-t) / (g(2-t) + g(t-1)),   g(s) = exp(-1/s) for s>0 else 0,

which equals 1 on (-inf,1], 0 on [2,inf) and is C^infinity.  chi is
evaluated as the closed form exp(-1/(2-t)) / (exp(-1/(2-t)) + exp(-1/(t-1)))
at every point, with the two plateaus selected afterwards (no per-point
masking; a NaN argument gives 1, as t <= 1 does).  The base
windows and their recorded constants are:

    homogeneous dyadic   phi0(t)   = chi(t) - chi(2t),  supp in [1/2, 2],
                         phi_n(t)  = phi0(2^-n t)
    inhomogeneous        phi0_in   = chi  (telescoped tail sum_{k<=0} phi_k),
                         phi_n_in  = phi_n  (n >= 1)
    equidistant          psi(t)    = chi(t+1) - chi(t+2), supp in [-1, 1],
                         psi_n(t)  = psi(t - n)
    even (bisectorial)   window evaluated at |t|

Each family sums to 1 on its domain by telescoping, and at any point at
most two members are nonzero (window supports only overlap between
neighbours).  The widened window  tilde(n) = sum_{k=-1..1} member(n+k)
equals 1 on the support of member n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_LOG2 = np.log(2.0)

# Plateau margin: inside this distance of the transition-band edges the
# symbolic derivative expressions are evaluated, outside they are exactly 0.
_EDGE = 1e-12


def _chi_values(t):
    t = np.asarray(t, dtype=float)
    # off the open band (1, 2) the exponentials overflow, divide by zero or
    # give inf/inf; np.where discards those values for the plateaus
    with np.errstate(all="ignore"):
        num = np.exp(-1.0 / (2.0 - t))
        band = num / (num + np.exp(-1.0 / (t - 1.0)))
    return np.where(t >= 2.0, 0.0, np.where(t > 1.0, band, 1.0))


@dataclass
class SmoothBump:
    """C^infinity transition chi: 1 on (-inf,1], 0 on [2,inf), nonincreasing.

    Derivatives up to ``max_order`` come from symbolic differentiation of
    the closed form, lambdified once per order and evaluated only on the
    open transition band (they vanish identically on the plateaus).
    """

    max_order: int = 8
    _deriv_funcs: dict = field(default_factory=dict, repr=False)

    def __call__(self, t):
        return _chi_values(t)

    def derivative(self, k: int, t):
        if k < 0 or k > self.max_order:
            raise ValueError(f"derivative order must be in [0, {self.max_order}]")
        if k == 0:
            return _chi_values(t)
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        band = (t > 1.0 + _EDGE) & (t < 2.0 - _EDGE)
        if np.any(band):
            out[band] = self._deriv(k)(t[band])
        return out

    def _deriv(self, k: int) -> Callable:
        if k not in self._deriv_funcs:
            import sympy as sp

            x = sp.Symbol("x", real=True)
            g_lo = sp.exp(-1 / (2 - x))
            g_hi = sp.exp(-1 / (x - 1))
            expr = g_lo / (g_lo + g_hi)
            dk = sp.diff(expr, x, k)
            self._deriv_funcs[k] = sp.lambdify(x, dk, modules="numpy")
        return self._deriv_funcs[k]


def build_bump() -> SmoothBump:
    """The package-wide transition function (all constants recorded above)."""
    return SmoothBump()


class PartitionError(ValueError):
    pass


HOMOGENEOUS = "homogeneous_dyadic"
INHOMOGENEOUS = "inhomogeneous_dyadic"
EQUIDISTANT = "equidistant"
EVEN_BISECTORIAL = "even_bisectorial"


@dataclass
class PartitionOfUnity:
    """Indexed window family with a common evaluator.

    ``window(n, t)`` evaluates member n at the points t.  Index range is
    conceptually Z (N_0 for the inhomogeneous kind); ``active_range``
    truncates it for an operator with spectral bounds [a, b]: members
    outside the returned range vanish identically on [a, b].
    """

    kind: str
    bump: SmoothBump
    base_kind: str | None = None   # underlying dyadic kind of an even extension

    def window(self, n: int, t):
        t = np.asarray(t, dtype=float)
        if self.kind == HOMOGENEOUS:
            s = t * 2.0 ** (-n)
            return self.bump(s) - self.bump(2.0 * s)
        if self.kind == INHOMOGENEOUS:
            if n < 0:
                raise PartitionError("inhomogeneous index must be >= 0")
            if n == 0:
                out = self.bump(t)
                out = np.where(t > 0, out, 0.0)   # supp phi0 in (0, 2]
                return out
            s = t * 2.0 ** (-n)
            return self.bump(s) - self.bump(2.0 * s)
        if self.kind == EQUIDISTANT:
            s = t - n
            return self.bump(s + 1.0) - self.bump(s + 2.0)
        if self.kind == EVEN_BISECTORIAL:
            base = PartitionOfUnity(self.base_kind or HOMOGENEOUS, self.bump)
            return base.window(n, np.abs(t))
        raise PartitionError(f"unknown partition kind {self.kind}")

    def window_derivative(self, n: int, k: int, t):
        """k-th derivative of member n (dyadic kinds, chain rule on the bump)."""
        t = np.asarray(t, dtype=float)
        if k == 0:
            return self.window(n, t)
        if self.kind == HOMOGENEOUS or (self.kind == INHOMOGENEOUS and n >= 1):
            a = 2.0 ** (-n)
            s = t * a
            return a**k * (self.bump.derivative(k, s) - 2.0**k * self.bump.derivative(k, 2.0 * s))
        if self.kind == INHOMOGENEOUS and n == 0:
            return self.bump.derivative(k, t)
        if self.kind == EQUIDISTANT:
            s = t - n
            return self.bump.derivative(k, s + 1.0) - self.bump.derivative(k, s + 2.0)
        raise PartitionError(f"window_derivative unsupported for kind {self.kind}")

    def support(self, n: int):
        """Closed support interval of member n (in |t| for the even kind)."""
        if self.kind == HOMOGENEOUS:
            return (2.0 ** (n - 1), 2.0 ** (n + 1))
        if self.kind == INHOMOGENEOUS:
            return (0.0, 2.0) if n == 0 else (2.0 ** (n - 1), 2.0 ** (n + 1))
        if self.kind == EQUIDISTANT:
            return (n - 1.0, n + 1.0)
        if self.kind == EVEN_BISECTORIAL:
            return PartitionOfUnity(self.base_kind or HOMOGENEOUS, self.bump).support(n)
        raise PartitionError(f"unknown partition kind {self.kind}")

    def active_range(self, lo: float, hi: float):
        """Index range outside which members vanish on the interval [lo, hi].

        For dyadic kinds the interval is a spectral range 0 < lo <= hi; for
        the equidistant kind it is a real interval (strip spectrum).
        """
        if self.kind in (HOMOGENEOUS, EVEN_BISECTORIAL):
            if lo <= 0:
                raise PartitionError("dyadic active range needs lo > 0")
            return (int(np.floor(np.log2(lo))) - 1, int(np.ceil(np.log2(hi))) + 1)
        if self.kind == INHOMOGENEOUS:
            return (0, max(0, int(np.ceil(np.log2(max(hi, 1.0)))) + 1))
        if self.kind == EQUIDISTANT:
            return (int(np.floor(lo)) - 1, int(np.ceil(hi)) + 1)
        raise PartitionError(f"unknown partition kind {self.kind}")

    def indices(self, lo: float, hi: float):
        n0, n1 = self.active_range(lo, hi)
        return range(n0, n1 + 1)


def build_homogeneous_dyadic(bump: SmoothBump | None = None) -> PartitionOfUnity:
    """phi0 = chi - chi(2 .): supp in [1/2,2], telescoping sum 1 on (0,inf)."""
    return PartitionOfUnity(HOMOGENEOUS, bump or build_bump())


def to_inhomogeneous(p: PartitionOfUnity) -> PartitionOfUnity:
    """Lump members n <= 0 into phi0 = chi (closed-form telescoped tail)."""
    if p.kind != HOMOGENEOUS:
        raise PartitionError("inhomogeneous partition derives from a homogeneous one")
    return PartitionOfUnity(INHOMOGENEOUS, p.bump)


def build_equidistant(bump: SmoothBump | None = None) -> PartitionOfUnity:
    """psi(t) = chi(t+1) - chi(t+2): supp in [-1,1], sum_n psi(t-n) = 1 on R."""
    return PartitionOfUnity(EQUIDISTANT, bump or build_bump())


def even_extension(p: PartitionOfUnity) -> PartitionOfUnity:
    """Evaluate a dyadic partition at |t| (double-sector spectra)."""
    if p.kind not in (HOMOGENEOUS, INHOMOGENEOUS):
        raise PartitionError("even extension applies to dyadic partitions")
    return PartitionOfUnity(EVEN_BISECTORIAL, p.bump, base_kind=p.kind)


def tilde(p: PartitionOfUnity, n: int):
    """Widened window: sum of members n-1, n, n+1 (existing indices only).

    Satisfies tilde(n) * member(n) = member(n) pointwise and
    tilde(m) * member(n) = 0 for |m - n| >= 2.
    """
    lo = 0 if p.kind == INHOMOGENEOUS else None

    def widened(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for k in (n - 1, n, n + 1):
            if lo is not None and k < lo:
                continue
            out = out + p.window(k, t)
        return out

    return widened


@dataclass
class PartitionReport:
    max_sum_defect: float
    max_overlap_count: int
    support_violation: float
    ok: bool


def validate_partition(p: PartitionOfUnity, grid, sum_tol: float = 1e-10,
                       zero_tol: float = 1e-14) -> PartitionReport:
    """Check sum-to-one, <=2 strictly-positive members per point, supports.

    The even kind sums to one on R minus the origin only, so zeros are
    dropped from the grid there.
    """
    grid = np.asarray(grid, dtype=float)
    if p.kind == EVEN_BISECTORIAL:
        grid = grid[grid != 0]
        mag = np.abs(grid)
        n0, n1 = p.active_range(np.min(mag), np.max(mag))
    else:
        n0, n1 = p.active_range(np.min(grid), np.max(grid))
    total = np.zeros_like(grid)
    count = np.zeros(grid.shape, dtype=int)
    support_violation = 0.0
    for n in range(n0, n1 + 1):
        v = p.window(n, grid)
        total += v
        count += (v > zero_tol).astype(int)
        lo, hi = p.support(n)
        where = np.abs(grid) if p.kind == EVEN_BISECTORIAL else grid
        outside = (where < lo - 1e-15) | (where > hi + 1e-15)
        if np.any(outside):
            support_violation = max(support_violation, float(np.max(np.abs(v[outside]))))
    max_defect = float(np.max(np.abs(total - 1.0)))
    max_count = int(np.max(count)) if count.size else 0
    ok = max_defect <= sum_tol and max_count <= 2 and support_violation <= zero_tol
    return PartitionReport(max_defect, max_count, support_violation, ok)
