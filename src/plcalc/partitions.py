"""Partitions of unity: dyadic on (0,inf), equidistant on R, even variants.

Everything is built by telescoping one fixed smooth transition function

    chi(t) = g(2-t) / (g(2-t) + g(t-1)),   g(s) = exp(-1/s) for s>0 else 0,

which equals 1 on (-inf,1], 0 on [2,inf) and is C^infinity.  chi is
evaluated as the closed form exp(-1/(2-t)) / (exp(-1/(2-t)) + exp(-1/(t-1)))
at every point, in place in one output array (chi_band), and the two
plateaus are then set by two np.copyto calls (no per-point masking, no
third array; a NaN argument gives 1, as t <= 1 does).  On [1, 2) the band
formula alone is chi, so a caller whose points all lie there
(experiments.DyadicSampleFamily) calls chi_band without the plateaus.
The base windows and their recorded constants are:

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

The two-window rule (PartitionOfUnity.two_windows) reads all members at a
point from one bump value: the point's first live member k holds
chi = bump(s) and member k+1 holds 1 - chi, where

    homogeneous, even    t = mant 2^e (frexp, |t| for the even kind):
                         k = e - 1, s = 2 mant = t 2^-k exactly
    inhomogeneous        the same k clipped at 0, s = t 2^-k: below t = 1
                         member 0 holds chi = 1
    equidistant          k = floor t, s = (t - k) + 1

and every other member is 0; so is every member at a dyadic point t <= 0
(a kernel zero).  window(n, t) stays the defining formula: the rule
reproduces it bit for bit on the dyadic kinds, and on the equidistant kind
member k+1 differs by at most one rounding, as (t - k - 1) + 2 is not
always (t - k) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def chi_band(s, out, low):
    """chi's band formula exp(-1/(2-s)) / (exp(-1/(2-s)) + exp(-1/(s-1))) at
    every point s, in place in out; low is scratch of s's shape and may be s
    itself (s is read only before low is written).  On [1, 2) it is chi, to
    the bit (s = 1 gives exactly 1); off the open band (1, 2) its
    exponentials overflow, divide by zero or give inf/inf, and _chi_values
    overwrites those values with the plateaus."""
    with np.errstate(all="ignore"):
        np.subtract(2.0, s, out=out)
        np.divide(-1.0, out, out=out)
        np.exp(out, out=out)                  # exp(-1/(2-s))
        np.subtract(s, 1.0, out=low)
        np.divide(-1.0, low, out=low)
        np.exp(low, out=low)                  # exp(-1/(s-1))
        low += out
        out /= low
    return out


def _chi_values(t):
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)      # ufuncs given out= keep a 0-d input an array
    chi_band(t, out, np.empty_like(t))
    np.copyto(out, 1.0, where=~(t > 1.0))     # t <= 1, and NaN
    np.copyto(out, 0.0, where=t >= 2.0)
    return out


@dataclass
class SmoothBump:
    """C^infinity transition chi: 1 on (-inf,1], 0 on [2,inf), nonincreasing."""

    def __call__(self, t):
        return _chi_values(t)


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

    @property
    def first_index(self) -> int | None:
        """The smallest member index: 0 for the inhomogeneous kind and its
        even extension, None where the index runs over Z."""
        return 0 if INHOMOGENEOUS in (self.kind, self.base_kind) else None

    def _base(self) -> "PartitionOfUnity":
        """The dyadic partition that the even kind evaluates at |t|."""
        return PartitionOfUnity(self.base_kind or HOMOGENEOUS, self.bump)

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
            return self._base().window(n, np.abs(t))
        raise PartitionError(f"unknown partition kind {self.kind}")

    def two_windows(self, t):
        """(k, chi, rest): at every point t, the first live member k, the
        value chi of member k and rest = 1 - chi of member k+1, by the
        two-window rule of the module docstring (one bump call).  Every
        other member vanishes at t; at a dyadic point t <= 0 all do, and
        chi = rest = 0 there."""
        t = np.asarray(t, dtype=float)
        if self.kind == EQUIDISTANT:
            k = np.floor(t)
            chi = self.bump((t - k) + 1.0)
            return k.astype(np.intp), chi, 1.0 - chi
        if self.kind == EVEN_BISECTORIAL:
            return self._base().two_windows(np.abs(t))
        if self.kind not in (HOMOGENEOUS, INHOMOGENEOUS):
            raise PartitionError(f"unknown partition kind {self.kind}")
        mant, e = np.frexp(t)
        k = e.astype(np.intp)
        k -= 1
        if self.kind == INHOMOGENEOUS:
            np.maximum(k, 0, out=k)
            chi = self.bump(np.ldexp(t, -k))
        else:
            mant *= 2.0           # s = 2 mant, in place
            chi = self.bump(mant)
        rest = 1.0 - chi          # 0 where t <= 0, as chi = bump(s <= 0) = 1
        np.copyto(chi, 0.0, where=t <= 0)
        return k, chi, rest

    def support(self, n: int):
        """Closed support interval of member n (in |t| for the even kind)."""
        if self.kind == HOMOGENEOUS:
            return (2.0 ** (n - 1), 2.0 ** (n + 1))
        if self.kind == INHOMOGENEOUS:
            return (0.0, 2.0) if n == 0 else (2.0 ** (n - 1), 2.0 ** (n + 1))
        if self.kind == EQUIDISTANT:
            return (n - 1.0, n + 1.0)
        if self.kind == EVEN_BISECTORIAL:
            return self._base().support(n)
        raise PartitionError(f"unknown partition kind {self.kind}")

    def active_range(self, lo: float, hi: float):
        """Index range outside which members vanish on the interval [lo, hi].

        For dyadic kinds the interval is a spectral range 0 < lo <= hi; for
        the equidistant kind it is a real interval (strip spectrum).
        """
        if self.kind == EVEN_BISECTORIAL:
            return self._base().active_range(lo, hi)
        if self.kind == HOMOGENEOUS:
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


def padded_rows(k, n_lo: int, width: int):
    """The row of member k in a table of the members n_lo, ...,
    n_lo + width - 1 stored with two zero rows of padding on both sides,
    clipped to width + 2.  Members k and k+1 of two_windows then sit in rows
    r and r+1, and a member outside the stored ones in the padding."""
    # np.minimum/np.maximum: np.clip costs more on the small index arrays
    return np.minimum(np.maximum(k - (n_lo - 2), 0), width + 2)


def build_homogeneous_dyadic() -> PartitionOfUnity:
    """phi0 = chi - chi(2 .): supp in [1/2,2], telescoping sum 1 on (0,inf)."""
    return PartitionOfUnity(HOMOGENEOUS, SmoothBump())


def to_inhomogeneous(p: PartitionOfUnity) -> PartitionOfUnity:
    """Lump members n <= 0 into phi0 = chi (closed-form telescoped tail)."""
    if p.kind != HOMOGENEOUS:
        raise PartitionError("inhomogeneous partition derives from a homogeneous one")
    return PartitionOfUnity(INHOMOGENEOUS, p.bump)


def build_equidistant() -> PartitionOfUnity:
    """psi(t) = chi(t+1) - chi(t+2): supp in [-1,1], sum_n psi(t-n) = 1 on R."""
    return PartitionOfUnity(EQUIDISTANT, SmoothBump())


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
    lo = p.first_index

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


SUM_TOL = 1e-10    # largest accepted |sum of the members - 1|
ZERO_TOL = 1e-14   # member values above this count as nonzero


def validate_partition(p: PartitionOfUnity, grid) -> PartitionReport:
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
        count += (v > ZERO_TOL).astype(int)
        lo, hi = p.support(n)
        where = np.abs(grid) if p.kind == EVEN_BISECTORIAL else grid
        outside = (where < lo - 1e-15) | (where > hi + 1e-15)
        if np.any(outside):
            support_violation = max(support_violation, float(np.max(np.abs(v[outside]))))
    max_defect = float(np.max(np.abs(total - 1.0)))
    max_count = int(np.max(count)) if count.size else 0
    ok = max_defect <= SUM_TOL and max_count <= 2 and support_violation <= ZERO_TOL
    return PartitionReport(max_defect, max_count, support_violation, ok)
