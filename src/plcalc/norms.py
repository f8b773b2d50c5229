"""Block-decomposition norms: square sums, randomized sums, continuous
square functions, discrete/continuous Besov-type norms, fractional powers,
the kernel split, K-functionals and real interpolation norms.

Every block, square-function and Besov norm is a reduction over the
fields f_j(A)x of one stack of multipliers f_j: the weighted windows
2^(n theta) window_n, or the symbol at the quadrature nodes, psi(t_j .) or
f(t_j .).  Such a norm is data: a NormPlan holds the half that does not
depend on x, built in one pass together with the quadrature tail
certificate, and calling the plan on x is the one evaluator of every such
norm.  An experiment builds a plan once and evaluates every sample with
it; the public norm functions build one per call.  A JSON norm spec is
built into its plan by one reader (norm_from_spec).  A window stack is
scattered from the partition's two-window rule, one bump call for all
windows (block_stack).

Where a partition's windows sit on the spectrum, and which of their
indices are active, is one rule (_window_grid), read off the partition
kind and never off the operator's type:

  homogeneous, inhomogeneous   at the real eigenvalues (a complex or
                               negative spectrum is refused), active over
                               the moduli bounds [lambda_min, lambda_max];
  even                         at |lambda|, over the same bounds: the
                               double-sector (bisectorial) variant;
  equidistant                  at Re log lambda, over its min and max: the
                               strip variant, the blocks of B = log A (an
                               operator with a kernel has no logarithm and
                               is refused).

A plan reads the fields by one of two routes, chosen in one place
(_plan, by _parseval):

  p = 2, orthonormal eigenbasis   by Parseval, ||f_j(A)x||_2^2 =
                                  sum_k |f_j(lambda_k)|^2 |<x, e_k>|^2: the
                                  plan holds these weights alone, built
                                  once, so a vector costs one coefficient
                                  transform and one GEMV, and no synthesis.
                                  The weights are the stack squared (field
                                  norms) or summed over its rows (square
                                  functions); the continuous square
                                  function's are the integrals
                                  sum_j du_j t_j^(-2 theta) |psi(t_j lambda_k)|^2
                                  that its tail certificate divides by,
                                  reduced over node blocks without a table
                                  (_dilation_integrals, calculus.node_sums);
  any other p, or a non-orthonormal basis (S diag S^-1)
                                  the plan holds the stack: one coefficient
                                  transform and one synthesis of the whole
                                  stack, then L^p norms of the fields.

With y_n = window_n(A) x the spectral blocks of x, the norms are

  square           || ( sum_n |2^(n theta) y_n|^2 )^(1/2) ||_p
  randomized       E || sum_n eps_n 2^(n theta) y_n ||_p   (Monte Carlo)
  continuous sq.   || ( int_0^inf |t^-theta psi(tA)x|^2 dt/t )^(1/2) ||_p
  Besov discrete   ( sum_n (2^(n theta) ||y_n||_p)^q )^(1/q)
  Besov continuous ( int_0^inf (t^-theta ||f(tA)x||_p)^q dt/t )^(1/q)
  fractional power || A^theta x ||_p
  kernel split     || P x ||_p + || ( sum_n |y_n|^2 )^(1/2) ||_p,  P onto N(A)
  K-functional     K(t,x) = inf_{x0+x1=x} ||A^t0 x0||_2 + t ||A^t1 x1||_2
  interpolation    ( int_0^inf (t^-vartheta K(t,x))^q dt/t )^(1/q)

with one rule for the exponent of every l^q or L^q(dt/t) combination:
q >= 1 or inf (_lq_exponent).

At p = 2 the optimal K-functional split reduces in diagonal coordinates
a_k = |<x, e_k>| to the one-parameter family

    y_k(c) = a_k / (1 + c * lambda_k^(2 (theta0 - theta1))),

with c fixed by the stationarity equation c = nu / (t mu), whose residual
changes sign at most once: the path's two ends tell which t have a root,
a safeguarded Newton iteration in ln c closes it, and K is the lesser of
that split and the boundary splits y = a, y = 0.

Everything is deterministic given (inputs, seed): random ensembles are
seeded, quadrature grids are fixed by their specs, reductions run in a
fixed order.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .calculus import log_trapezoid, node_blocks, node_sums, spectral_multiplier
from .measure import lp_norm
from .operators import ModelOperator, SpecReader, array_size, exponent, finite, non_negative
from .partitions import (EQUIDISTANT, EVEN_BISECTORIAL, INHOMOGENEOUS, PartitionOfUnity,
                         build_equidistant, build_homogeneous_dyadic, padded_rows,
                         to_inhomogeneous)
from .symbols import Symbol, symbol_from_spec, window_symbol


class NormsError(ValueError):
    pass


ENSEMBLE_KINDS = ("rademacher", "gaussian")


@dataclass(frozen=True)
class RandomEnsemble:
    """Seeded sign/gaussian ensemble; the stream is reproducible from the seed."""

    seed: int
    count: int = 256
    kind: str = "rademacher"     # one of ENSEMBLE_KINDS

    def __post_init__(self):
        if self.count < 1:
            raise NormsError("ensemble count must be >= 1")
        if self.kind not in ENSEMBLE_KINDS:
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

    def __post_init__(self):
        if not (0 < self.t_lo < self.t_hi):
            raise NormsError("need 0 < t_lo < t_hi")
        if self.nodes_per_decade < 4:
            raise NormsError("need at least 4 nodes per decade")

    def nodes(self):
        return log_trapezoid(self.t_lo, self.t_hi, self.nodes_per_decade)

    @staticmethod
    def cover(op: ModelOperator, margin: float = 2.0**10) -> "QuadratureSpec":
        """Default coverage t in [1/(margin lambda_max), margin/lambda_min]."""
        return QuadratureSpec(t_lo=1.0 / (margin * op.lambda_max),
                              t_hi=margin / op.lambda_min_positive)

    def scaled(self, factor: float) -> "QuadratureSpec":
        return QuadratureSpec(self.t_lo * factor, self.t_hi * factor, self.nodes_per_decade)


# -- spectral blocks -----------------------------------------------------------

_HALF_LINE_FAULTS = {
    "complex": "complex spectrum: use the even (double-sector) windows",
    "negative": "negative eigenvalues: half-line symbols need a spectrum in [0, inf); "
                "use the even (double-sector) windows",
}


def _spectral_argument(op: ModelOperator) -> np.ndarray:
    """The real eigenvalues, where half-line symbols are evaluated.

    The admission rule of every path that reads a real spectrum: dyadic
    windows, square-function and Besov symbols and the K-functional live
    on the half-line, so a complex or a negative spectrum raises NormsError.
    The operator classifies its spectrum once, when it is built
    (half_line_fault).
    """
    if op.half_line_fault is not None:
        raise NormsError(_HALF_LINE_FAULTS[op.half_line_fault])
    return np.real(op.eigenvalues_or_none())


def _dilation_table(op: ModelOperator, f, t) -> np.ndarray:
    """f(t_j lambda_k): row j for the node t_j, column k for the eigenvalue
    lambda_k, in the symbol's dtype (a real symbol gives a real table);
    kernel columns are 0.  Filled per node block (calculus.node_blocks)."""
    table = None
    for rows, values in node_blocks(t, _spectral_argument(op)[op.nonzero],
                                    lambda t, lam: f(t * lam)):
        if table is None:
            table = np.zeros((t.size, op.nonzero.size), dtype=values.dtype)
        table[rows, op.nonzero] = values
    return table


def _dilation_integrals(op: ModelOperator, f, t, w) -> np.ndarray:
    """sum_j w_j f(t_j lambda_k) for every eigenvalue lambda_k, 0 on the
    kernel, for a real integrand f: node sums (calculus.node_sums)."""
    out = np.zeros(op.nonzero.size)
    out[op.nonzero] = node_sums(w, t, _spectral_argument(op)[op.nonzero],
                                lambda t, lam: f(t * lam))
    return out


def _window_grid(op: ModelOperator, p: PartitionOfUnity):
    """(points, indices): the point of every eigenvalue at which the windows
    of p are evaluated, and the range of window indices active there (the
    rule in the module docstring).

    Dyadic windows vanish at 0, so kernel content never enters a block;
    equidistant windows read the logarithm, so an operator with a kernel
    is refused.
    """
    if p.kind == EQUIDISTANT:
        if not op.injective:
            raise NormsError("equidistant windows sit on Re log A, which needs an "
                             "injective operator")
        points = np.real(np.log(op.eigenvalues_or_none()))
        return points, p.indices(float(np.min(points)), float(np.max(points)))
    points = (np.abs(op.eigenvalues_or_none()) if p.kind == EVEN_BISECTORIAL
              else _spectral_argument(op))
    return points, p.indices(op.lambda_min_positive, op.lambda_max)


def block_indices(op: ModelOperator, p: PartitionOfUnity):
    """Active window indices for the operator's spectral range."""
    return list(_window_grid(op, p)[1])


def block_stack(op: ModelOperator, p: PartitionOfUnity, theta: float = 0.0):
    """(indices, windows): the active window indices n and, in row i, the
    multiplier 2^(n theta) window_n on the spectrum, n = indices[i].

    The half of every block norm that does not depend on x, scattered from
    the partition's two-window rule: one bump call for the whole stack.
    """
    if theta != 0.0 and p.kind == EQUIDISTANT:
        raise NormsError("weighted blocks are defined for dyadic partitions")
    points, indices = _window_grid(op, p)
    k, chi, rest = p.two_windows(points)
    width = len(indices)
    rows = padded_rows(k, indices.start, width)
    cols = np.arange(points.size)
    padded = np.zeros((width + 4, points.size))
    padded[rows, cols] = chi
    padded[rows + 1, cols] = rest
    windows = padded[2:-2]
    indices = np.array(indices)
    if theta != 0.0:
        windows *= _block_weights(indices, theta)[:, None]
    return indices, windows


def spectral_blocks(op, p: PartitionOfUnity, x, theta: float = 0.0):
    """(indices, Y): the active window indices n and, in row i, the block
    2^(n theta) window_n(A) x of n = indices[i], from one coefficient
    transform and one synthesis of the block stack."""
    indices, windows = block_stack(op, p, theta)
    return indices, spectral_multiplier(op, windows, x)


def _finite(values, what: str):
    """values, formed under np.errstate(over="ignore"); one that overflowed
    raises NormsError naming ``what`` (an inf would turn the zeros it
    multiplies into NaN).  An underflow to 0 is kept."""
    if not np.all(np.isfinite(values)):
        raise NormsError(f"non-finite {what}")
    return values


def _block_weights(indices, theta: float) -> np.ndarray:
    """2^(n theta) at every block index n (_finite)."""
    with np.errstate(over="ignore"):
        return _finite(2.0 ** (indices * theta), f"block weights 2^(n theta) at theta={theta}")


# -- norm plans -------------------------------------------------------------------

def _parseval(op, pnorm) -> bool:
    """Whether L^p norms of fields are read off the coefficient energies:
    at p = 2 on an eigenbasis orthonormal in L^2(measure)."""
    return pnorm == 2 and op.orthonormal


@dataclass(frozen=True, eq=False)
class NormPlan:
    """A stack norm as data: its half that does not depend on x.

    The fields f_j(A)x of the multipliers f_j, the rows of the stack F
    (m x K, or one multiplier of shape (K,)), are reduced by the combiner:

      fields        ||f_j(A)x||_p of every row, or of every signed sum
                    sum_j d_j f_j(A)x over the rows d of draws; a number
                    for one multiplier
      mean          the mean of those norms
      lq            (sum_j du_j (w_j ||f_j(A)x||_p)^q)^(1/q), w the row
                    weights 2^(n theta) or t_j^-theta; their max for
                    q = inf
      square        || (sum_j |f_j(A)x|^2)^(1/2) ||_p
      kernel_plus   ||Px||_p plus the square function, P onto N(A)

    The route (_plan) says how the fields are read.  On "synthesis" the
    plan holds F, and a vector costs one coefficient transform and one
    synthesis of the stack.  On "parseval" it holds only the energy
    weights: |f_j(lambda_k)|^2 (of the signed rows with draws), their sum
    over the rows for a square function, behind the kernel indicator for
    kernel_plus, or the continuous square function's integrals; a vector
    costs one coefficient transform and one GEMV.  Calling a plan on x is
    the one evaluator of every stack norm.
    """

    op: ModelOperator
    pnorm: float
    combiner: str
    route: str                              # "parseval" or "synthesis"
    stack: np.ndarray | None = None         # F, on the synthesis route
    energy: np.ndarray | None = None        # the weights of |<x, e_k>|^2, on the Parseval route
    draws: np.ndarray | None = None         # signs or gaussians, one row per signed sum
    row_weights: np.ndarray | None = None   # lq: w_j
    du: np.ndarray | float = 1.0            # lq: the quadrature weights, 1 for a plain sum
    q: float = 2.0                          # lq: the exponent (_lq_exponent)

    def __call__(self, x):
        op, pnorm = self.op, self.pnorm
        if self.route == "parseval":
            out = np.sqrt(self.energy @ np.square(np.abs(op.coefficients(x))))
        elif self.combiner in ("square", "kernel_plus"):
            fields = spectral_multiplier(op, self.stack, x)
            with np.errstate(over="ignore"):   # inf, which the caller refuses
                out = lp_norm(np.sqrt(np.sum(np.abs(fields) ** 2, axis=0)), pnorm, op.measure)
        else:
            fields = spectral_multiplier(op, self.stack, x)
            out = lp_norm(fields if self.draws is None else self.draws @ fields, pnorm, op.measure)
        if self.combiner == "lq":
            values, q = self.row_weights * out, self.q
            if q == np.inf:
                return float(np.max(values)) if values.size else 0.0
            with np.errstate(over="ignore"):   # a q-th power that overflows: inf, which is refused
                return float(np.sum(self.du * values**q) ** (1.0 / q))
        if self.combiner == "mean":
            return float(np.mean(out))
        if self.combiner == "kernel_plus":
            return (float(np.sum(out)) if self.route == "parseval"
                    else lp_norm(op.kernel_component(x), pnorm, op.measure) + out)
        return out if np.ndim(out) else float(out)


def _plan(op, pnorm, combiner: str, stack, energy=None, **reduction) -> NormPlan:
    """The plan of a stack norm, and the one place its route is chosen.

    ``stack`` is a function of no arguments that builds F.  The synthesis
    route holds F.  The Parseval route holds ``energy`` where a norm brings
    its own weights (the continuous square function's integrals, for which
    F is never built), and otherwise F squared once, under
    np.errstate(over="ignore"); weights that overflowed are refused
    (_finite).
    """
    if not _parseval(op, pnorm):
        return NormPlan(op, pnorm, combiner, "synthesis", stack=stack(), **reduction)
    if energy is None:
        values, draws = stack(), reduction.get("draws")
        with np.errstate(over="ignore"):
            energy = np.square(np.abs(values if draws is None else draws @ values))
            if combiner in ("square", "kernel_plus"):
                energy = energy.sum(axis=0)
        if combiner == "kernel_plus":
            energy = np.vstack([~op.nonzero, energy])
    _finite(energy, "Parseval weights |f(lambda_k)|^2: a multiplier squared overflows")
    return NormPlan(op, pnorm, combiner, "parseval", energy=energy, **reduction)


# -- block norms ----------------------------------------------------------------

def _square_plan(op, p: PartitionOfUnity, pnorm, theta: float) -> NormPlan:
    return _plan(op, pnorm, "square", lambda: block_stack(op, p, theta)[1])


def pl_square_norm(op, p: PartitionOfUnity, x, pnorm=2, theta: float = 0.0) -> float:
    """|| ( sum_n |2^(n theta) window_n(A) x|^2 )^(1/2) ||_p."""
    return _square_plan(op, p, pnorm, theta)(x)


@dataclass
class PLRandomResult:
    mean: float
    stderr: float
    samples: np.ndarray


def _random_plan(op, p: PartitionOfUnity, pnorm, ens: RandomEnsemble, theta: float,
                 combiner: str = "mean") -> NormPlan:
    """The window stack and the draws: the sum over blocks of one draw is the
    field of the multiplier sum_n eps_n 2^(n theta) window_n."""
    windows = block_stack(op, p, theta)[1]
    return _plan(op, pnorm, combiner, lambda: windows, draws=ens.draws(len(windows)))


def pl_random_norm(op, p: PartitionOfUnity, x, pnorm, ens: RandomEnsemble,
                   theta: float = 0.0) -> PLRandomResult:
    """Monte Carlo E || sum_n eps_n 2^(n theta) window_n(A) x ||_p.

    Returns the sample mean of the norm, its standard error, and the raw
    samples (their squares feed the square-sum consistency check).
    """
    samples = _random_plan(op, p, pnorm, ens, theta, "fields")(x)
    with np.errstate(invalid="ignore"):   # an inf sample: an inf mean, which is refused
        stderr = float(np.std(samples, ddof=1) / np.sqrt(ens.count)) if ens.count > 1 else 0.0
    return PLRandomResult(float(np.mean(samples)), stderr, samples)


def _inhomogeneous_plan(op, p: PartitionOfUnity, pnorm, theta: float) -> NormPlan:
    if p.kind != INHOMOGENEOUS:
        raise NormsError("pass the inhomogeneous partition")
    if theta < 0:
        raise NormsError("inhomogeneous weights need theta >= 0")
    return _square_plan(op, p, pnorm, theta)


def pl_inhomogeneous_norm(op, p: PartitionOfUnity, x, pnorm=2, theta: float = 0.0) -> float:
    """Inhomogeneous variant: blocks phi_n, n >= 0, weights 2^(n theta) >= 1."""
    return _inhomogeneous_plan(op, p, pnorm, theta)(x)


# -- continuous square function -------------------------------------------------

SQUARE_TAIL_RTOL = 1e-8   # certified quadrature tails relative to the integral


def _continuous_square_plan(op: ModelOperator, psi: Symbol, theta: float, pnorm,
                            quad: QuadratureSpec | None) -> NormPlan:
    """The per-eigenvalue integral I_k = sum_j du_j t_j^(-2 theta)
    |psi(t_j lambda_k)|^2, reduced over node blocks (_dilation_integrals)
    without a (node, eigenvalue) table: it is both the denominator of the
    tail certificate and, on the Parseval route, the energy weight.  Only
    the synthesis route builds the table of the fields' multipliers."""
    if psi.decay is None:
        raise NormsError(f"symbol {psi.name} carries no decay certificate")
    e0, ei, c = psi.decay.eps0, psi.decay.eps_inf, psi.decay.real_axis_constant
    if not (e0 > theta and ei > -theta):
        raise NormsError("certificate does not support this weight theta")
    if quad is None:
        # range sized so the certified tails undercut SQUARE_TAIL_RTOL with margin,
        # assuming the integral itself is not much below c^2 * s-range mass
        s_lo = (0.01 * SQUARE_TAIL_RTOL * (e0 - theta) / max(c, 1e-300) ** 2) \
            ** (1.0 / (2 * (e0 - theta))) if np.isfinite(e0) else 2.0**-10
        s_hi = (max(c, 1e-300) ** 2 / (0.01 * SQUARE_TAIL_RTOL * (ei + theta))) \
            ** (1.0 / (2 * (ei + theta))) if np.isfinite(ei) else 2.0**10
        quad = QuadratureSpec(t_lo=min(s_lo, 2.0**-10) / op.lambda_max,
                              t_hi=max(s_hi, 2.0**10) / op.lambda_min_positive)
    t, du = quad.nodes()
    nz = op.nonzero
    lam = _spectral_argument(op)[nz]
    with np.errstate(over="ignore"):
        weights = _finite(du * t ** (-2 * theta), f"weights t^(-2 theta) at theta={theta}")
    integ = _dilation_integrals(op, lambda s: np.square(np.abs(psi(s))), t, weights)
    # certified tails of int t^(-2 theta) |psi(t lambda)|^2 dt/t, relative to
    # the computed per-eigenvalue integral
    if np.isfinite(e0) and np.isfinite(ei) and np.any(nz):
        s_lo = t[0] * lam
        s_hi = t[-1] * lam
        tail = lam ** (2 * theta) * (
            c**2 * s_lo ** (2 * (e0 - theta)) / (2 * (e0 - theta))
            + c**2 * s_hi ** (-2 * (ei + theta)) / (2 * (ei + theta)))
        rel = float(np.max(tail / np.maximum(integ[nz], 1e-300)))
        if rel > SQUARE_TAIL_RTOL:
            raise NormsError(f"quadrature tail {rel:.2e} above tolerance {SQUARE_TAIL_RTOL:.2e}; "
                             "widen the t-range")

    def stack():
        # pointwise square function: S(u)^2 = sum_j du t_j^(-2 theta) |psi(t_j A)x (u)|^2
        with np.errstate(over="ignore"):
            values = (du[:, None] ** 0.5) * t[:, None] ** (-theta) * _dilation_table(op, psi, t)
        return _finite(values, f"multipliers t^-theta psi(t lambda) at theta={theta}")

    return _plan(op, pnorm, "square", stack, energy=integ)


def continuous_square_norm(op: ModelOperator, psi: Symbol, theta: float, x,
                           pnorm=2, quad: QuadratureSpec | None = None) -> float:
    """|| ( int |t^-theta psi(tA) x|^2 dt/t )^(1/2) ||_p by log-trapezoid.

    psi must certify |psi(t)| <= C min(t^eps0, t^-eps_inf) with eps0 > theta
    and eps_inf > -theta, so the truncated integrand
    t^(-2 theta) |psi(t lambda)|^2 has certified geometric tails.
    """
    return _continuous_square_plan(op, psi, theta, pnorm, quad)(x)


# -- Besov-type norms -----------------------------------------------------------

def _lq_exponent(q) -> float:
    """q as a float, inf for "inf": the one exponent rule of the Besov and
    interpolation norms, q >= 1."""
    q = np.inf if q == "inf" else float(q)
    if not q >= 1:
        raise NormsError("q must be >= 1 or inf")
    return q


def _besov_discrete_plan(op, p: PartitionOfUnity, theta: float, q, pnorm) -> NormPlan:
    q = _lq_exponent(q)
    indices, windows = block_stack(op, p)
    return _plan(op, pnorm, "lq", lambda: windows, q=q, row_weights=_block_weights(indices, theta))


def besov_discrete_norm(op, p: PartitionOfUnity, x, theta: float, q, pnorm=2) -> float:
    """( sum_n (2^(n theta) ||window_n(A) x||_p)^q )^(1/q); sup for q = inf."""
    return _besov_discrete_plan(op, p, theta, q, pnorm)(x)


def _besov_continuous_plan(op: ModelOperator, theta: float, q, f: Symbol, pnorm,
                           quad: QuadratureSpec | None) -> NormPlan:
    _check_besov_symbol(f, theta)
    q = _lq_exponent(q)
    if quad is None:
        quad = QuadratureSpec.cover(op)
    t, du = quad.nodes()
    with np.errstate(over="ignore"):
        weights = _finite(t**-theta, f"weights t^-theta at theta={theta}")
    return _plan(op, pnorm, "lq", lambda: _dilation_table(op, f, t), row_weights=weights,
                 du=du, q=q)


def besov_continuous_norm(op: ModelOperator, x, theta: float, q, f: Symbol,
                          pnorm=2, quad: QuadratureSpec | None = None) -> float:
    """( int (t^-theta ||f(tA)x||_p)^q dt/t )^(1/q) by log-trapezoid.

    Admitted f: compactly supported window symbols, psi_exp with a > theta,
    or res_frac t^a (1+t)^-b with 0 < a - theta < b (the block-summed
    multiplier criterion holds for these); anything else needs a decay
    certificate with eps0 > theta.
    """
    return _besov_continuous_plan(op, theta, q, f, pnorm, quad)(x)


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
    lam, a = _spectral_argument(op), np.abs(op.coefficients(x))
    if op.injective:
        return lam, a
    nz = op.nonzero
    return lam[nz], a[nz]


def k_functional(op: ModelOperator, x, t, theta0: float, theta1: float):
    """K(t, x; theta0, theta1) = inf over x = x0 + x1 of
    ||A^theta0 x0||_2 + t ||A^theta1 x1||_2, on the injective part.

    t is a number (K is returned as a float) or a 1-D array (K at every
    entry, as an array, from one coefficient transform).  A t that is not
    finite and > 0, or a theta that is not finite, raises NormsError; so
    does a theta whose powers lam^theta, or whose ratio
    rho = lam^(2 (theta0 - theta1)), leave the float range on the spectrum.

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

    The vector's data are formed once (_k_split_data), then K at every t
    (_k_at, _stationary_splits): a K-curve costs one coefficient transform
    and its roots, and should pass its whole t-array in one call.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:                       # a number: checked as a Python float
        tf = float(ts)
        bad = None if 0.0 < tf < math.inf else tf
        tv = ts.reshape(1)
    elif ts.ndim == 1:
        tv = ts
        bad = None if 0.0 < tv.min(initial=1.0) and tv.max(initial=1.0) < np.inf \
            else tv[~((tv > 0.0) & (tv < np.inf))][0]                 # NaN fails both
    else:
        raise NormsError("K-functional times must be a number or a 1-D array")
    if bad is not None:
        raise NormsError(f"K-functional time must be finite and > 0, got {bad}")
    for name, theta in (("theta0", theta0), ("theta1", theta1)):
        if not math.isfinite(theta):
            raise NormsError(f"K-functional exponent {name} must be finite, got {theta}")
    lam, a = _diagonal_data(op, x)
    # an overflow or a zero divisor is read as inf or NaN: a power or rho out
    # of range is refused (_k_split_data), a t beyond 1e154 squares to inf
    # and has no root, and t ||A^theta1 x|| = inf leaves x0 = x
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        data = _k_split_data(lam, a, theta0, theta1)
        k = np.ldexp(_k_at(data, tv), data.e)
    return float(k[0]) if ts.ndim == 0 else k


_KSplitData = namedtuple("_KSplitData", "e rho_min drho sq n0 n1")


def _k_split_data(lam, a, theta0: float, theta1: float) -> _KSplitData:
    """The K-functional's data of one vector (nonzero eigenvalues lam,
    coefficient moduli a): e with a scaled by 2^-e into [1/2, 1), the least
    rho = (u/v)^2 and drho = rho - rho_min, sq = [(u a)^2, (v a rho)^2] and
    n0 = ||A^theta0 x||, n1 = ||A^theta1 x|| of the scaled x.  A theta whose
    powers or ratio rho leave the float range raises NormsError, and so do
    thetas whose squares leave it only for this x: for a nonzero x, n0 or n1
    under- or overflowing to 0 or inf would read K = 0 or inf at every t
    (the caller ignores numpy's floating-point warnings)."""
    # K is positively homogeneous in a: scaling a by a power of two into
    # [1/2, 1) is exact, and no square of a tiny or huge x under- or overflows
    a_max = a.max(initial=0.0)
    _, e = math.frexp(a_max)
    a = np.ldexp(a, -e)
    u = lam**theta0
    v = lam**theta1
    rho = np.square(u / v)
    rho_min = float(rho.min(initial=np.inf))
    if not (0.0 < rho_min and rho.max(initial=1.0) < np.inf):
        spectrum = f"on the spectrum [{lam.min():.6g}, {lam.max():.6g}]"
        for name, theta, power in (("theta0", theta0, u), ("theta1", theta1, v)):
            if not (0.0 < power.min() and power.max() < np.inf):
                raise NormsError(f"K-functional exponent {name}={theta}: lam^{name} leaves "
                                 f"the float range {spectrum}")
        raise NormsError(f"K-functional exponents theta0={theta0}, theta1={theta1}: the ratio "
                         f"rho = lam^(2 (theta0 - theta1)) leaves the float range {spectrum}")
    va = v * a
    sq = np.empty((a.size, 2))
    np.multiply(u, a, out=sq[:, 0])
    np.multiply(va, rho, out=sq[:, 1])
    np.square(sq, out=sq)                                 # [(u a)^2, (v a rho)^2]
    n0, n1 = math.sqrt(sq[:, 0].sum()), math.sqrt(np.square(va).sum())
    if a_max > 0.0 and not (0.0 < min(n0, n1) and max(n0, n1) < math.inf):
        raise NormsError(f"K-functional exponents theta0={theta0}, theta1={theta1}: the squares "
                         "in ||A^theta0 x||, ||A^theta1 x|| under- or overflow for this x on "
                         f"the spectrum [{lam.min():.6g}, {lam.max():.6g}]")
    return _KSplitData(e, rho_min, rho - rho_min, sq, n0, n1)


def _k_at(data: _KSplitData, t) -> np.ndarray:
    """K of data's scaled x at every entry of the 1-D array t; warnings as in _k_split_data."""
    k = np.minimum(data.n0, t * data.n1)                  # x0 = x, x1 = x
    idx, _, _, mu_nu = _stationary_splits(t, data.rho_min, data.drho, data.sq)
    if idx.size:
        k[idx] = np.minimum(mu_nu[:, 0] + t[idx] * mu_nu[:, 1], k[idx])
    return k


# The root solve of the stationary split: the path's two ends decide which t
# have a root, and a safeguarded Newton iteration in ln c closes it, mostly
# in four or five path evaluations.  A root located to K_ROOT_WIDTH in ln c
# leaves K exact to second order; |phi| <= K_ROOT_FLAT is met only where the
# path is flat, so that K no longer depends on c; K_ROOT_ITERS evaluations
# without either raise NormsError
_C_ENDS = tuple(np.logspace(-30, 30, 2).tolist())
_LN_C_LO, _LN_C_HI = np.log(_C_ENDS).tolist()
K_ROOT_WIDTH = 1e-9
K_ROOT_FLAT = 1e-13
K_ROOT_ITERS = 40
# (bracket, c, mu_nu) of a t-set without a root: empty, so every call shares them
_NO_ROOTS = (np.empty((2, 0)), np.empty(0), np.empty((0, 2)))


def _split_path(c, rho_min: float, drho, sq) -> np.ndarray:
    """(3, len(c), 2): at every entry of the sequence c, with
    f = 1 + c rho_min, the sums over k of f^2 w_k, f^2 w_k p_k and
    f^2 w_k p_k^2 times the columns of sq = [(u a)^2, (v a rho)^2], where
    w_k = (1 + c rho_k)^-2 and p_k = c (rho_k - rho_min)/(1 + c rho_k).

    The first row is (mu^2, (nu/c)^2) of the split y = a/(1 + c rho), as
    a - y = c a rho/(1 + c rho).  Each weight row is scaled by its largest
    weight, the one at rho_min: f^2 w_k = (1 + (c/f) drho_k)^-2 <= 1, so no
    sum underflows to 0 while x has a component there, and the factor
    cancels in every ratio of the row's sums.  The other rows give the
    derivatives in ln c (_stationary_splits).  The block takes one outer
    product, an add, a reciprocal and four products, and one GEMM gives
    all sums; nothing cancels at extreme c.

    At the path's two ends, c = _C_ENDS itself, only the sums are used:
    the result is (1, 2, 2), from the weight row alone (a 2 x n block and
    one (2 x n)(n x 2) product).  BLAS may sum the smaller product in
    another order, so a sum can differ from the full evaluation's in its
    last bit; which t have a root does not move on a 2,001-point t-grid
    (tests/test_norms.py).
    """
    c_f = [ck / (1.0 + ck * rho_min) for ck in c]
    if c is _C_ENDS:
        w = np.multiply.outer(c_f, drho)
        w += 1.0
        np.reciprocal(w, out=w)
        np.square(w, out=w)
        return (w @ sq)[None]
    m = len(c)
    w = np.empty((3, m, drho.size))
    w0, w1, w2 = w
    np.multiply.outer(c_f, drho, out=w2)   # c (rho - rho_min)/f
    np.add(w2, 1.0, out=w0)                # (1 + c rho)/f
    np.reciprocal(w0, out=w0)
    w2 *= w0                               # p
    np.square(w0, out=w0)                  # f^2 w
    np.multiply(w0, w2, out=w1)            # f^2 w p
    w2 *= w1                               # f^2 w p^2
    return (w.reshape(3 * m, -1) @ sq).reshape(3, m, 2)


def _stationary_splits(t, rho_min: float, drho, sq):
    """(idx, bracket, c, mu_nu): the entries idx of t whose residual
    changes sign, a (2, len(idx)) interval in ln c holding each root, the
    point c taken for it and (mu, nu) there, one row each.

    The residual phi = ln((nu/c)^2) - ln(t^2 mu^2) is nonincreasing in
    c and changes sign at most once, so a t has a root exactly when
    phi > 0 at the path's first end and phi <= 0 at its last: one path
    evaluation at the two ends, of the weight row only (_split_path),
    serves every t, and a t without a sign change is left out, as a
    boundary split wins; a t-set without one returns shared empty
    arrays.  Each root is then found by a safeguarded Newton iteration in
    ln c (rtsafe), started at ln c = -ln t^2.  Its step is Newton's step on the local model
    phi ~ alpha + beta c^k, k = phi''/phi' (derivatives in ln c), that is,
    Newton in c^k: near both ends phi approaches its limit like c^(+-1),
    where the plain step in ln c shrinks by less than half per step and
    the safeguard would bisect a bracket up to 138 wide.  Where the model
    has no root (1 + k delta <= 0, delta the plain step) or k = 0 (its
    limit) the plain step is proposed; a flat path (phi' = 0), none.

    Every evaluation narrows its t's bracket by the sign of phi.  Then,
    before the safeguard, a t stops when its step is at most K_ROOT_WIDTH
    (interval: the point and the step's end), when |phi| <= K_ROOT_FLAT
    (the point itself) or when its bracket is K_ROOT_WIDTH wide (the
    bracket).  Otherwise the step is taken if it lands strictly inside the
    bracket and is at most half the step before last, and the bracket is
    bisected if not.  K_ROOT_ITERS evaluations without a stop raise
    NormsError.

    The derivatives come from the means E_mu, E_nu under the weights
    w (u a)^2 and w (v a rho)^2 (_split_path): with q = c rho/(1 + c rho)
    = c rho_min/f + p/f, phi' = -2 (E_nu[q] - E_mu[q]) = -2 D/f, D the
    difference of the means of p, and phi''/phi' = k =
    (1 - c rho_min + 2 (E_nu[p] + E_mu[p]) - 3 (E_nu[p^2] - E_mu[p^2])/D)/f.

    A round is one evaluation of _split_path at every open root's point,
    read back as Python floats once; each root's phi, phi' and k, step,
    bracket update, stop test and safeguard are then scalar work on them.
    No sum is 0 while x has a component at rho_min, so every quotient is
    finite.
    """
    ends = _split_path(_C_ENDS, rho_min, drho, sq)[0]
    t2 = np.square(t)
    # read without a division: at a = 0 (mu = nu = 0) no t changes sign
    idx = ((ends[0, 1] > t2 * ends[0, 0]) & (ends[1, 1] <= t2 * ends[1, 0])).nonzero()[0]
    m = idx.size
    if not m:
        return (idx,) + _NO_ROOTS
    ln_t2 = np.log(t2[idx]).tolist()
    lo, hi = [_LN_C_LO] * m, [_LN_C_HI] * m
    x = [-v if _LN_C_LO < -v < _LN_C_HI else 0.0 for v in ln_t2]
    last = [_LN_C_HI - _LN_C_LO] * m
    half_before_last = [0.5 * last[0]] * m
    other = [0.0] * m                      # each root's other end of its interval
    mu_nu = [None] * m                     # each root's (mu, nu) at its stop
    live = list(range(m))
    evaluations = 0
    while live:
        if evaluations == K_ROOT_ITERS:
            raise NormsError(f"K-functional root at t = {t[idx[live[0]]]:.17g} not "
                             f"closed in {K_ROOT_ITERS} path evaluations")
        evaluations += 1
        cs = np.exp([x[r] for r in live]).tolist()
        path = _split_path(cs, rho_min, drho, sq).tolist()
        still = []
        for r, cr, (m0, n0), (m1, n1), (m2, n2) in zip(live, cs, *path):
            f = 1.0 + cr * rho_min
            ep_mu, ep_nu = m1 / m0, n1 / n0            # E_mu[p], E_nu[p]
            d = ep_nu - ep_mu                          # f eta
            xr, phi = x[r], math.log(n0 / m0) - ln_t2[r]
            if d:
                k = (1.0 - cr * rho_min + 2.0 * (ep_nu + ep_mu) - 3.0 * (n2 / n0 - m2 / m0) / d) / f
                delta = f * phi / (d + d)              # the plain Newton step
                kd = k * delta
                step = math.log1p(kd) / k if k and kd > -1.0 else delta
            else:                                      # a flat path: bisect
                step = math.inf
            newton = xr + step
            step = abs(step)
            if phi > 0:
                lo[r] = lr = xr
                hr = hi[r]
            else:
                hi[r] = hr = xr
                lr = lo[r]
            # a stop takes the interval: the point alone on a flat path, the
            # point and the step's end, or else the bracket
            if abs(phi) <= K_ROOT_FLAT:
                other[r] = xr
            elif step <= K_ROOT_WIDTH:
                other[r] = min(max(newton, lr), hr)
            elif hr - lr <= K_ROOT_WIDTH:
                other[r] = hr if phi > 0 else lr
            else:
                if lr < newton < hr and step <= half_before_last[r]:
                    x[r] = newton
                else:
                    x[r] = (lr + hr) * 0.5
                half_before_last[r], last[r] = 0.5 * last[r], abs(x[r] - xr)
                still.append(r)
                continue
            mu_nu[r] = (math.sqrt(m0) / f, cr * math.sqrt(n0) / f)   # f divided back out
        live = still
    c = np.exp(x)
    bracket = np.array([[min(xr, end) for xr, end in zip(x, other)],
                        [max(xr, end) for xr, end in zip(x, other)]])
    return idx, bracket, c, np.array(mu_nu)


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


INTERPOLATION_TAIL_RTOL = 1e-9   # certified t-tails relative to the integral


def real_interpolation_norm(op: ModelOperator, x, vartheta: float, q,
                            theta0: float = 0.0, theta1: float = 1.0,
                            quad: QuadratureSpec | None = None) -> float:
    """( int (t^-vartheta K(t,x))^q dt/t )^(1/q) by log-trapezoid.

    Tails are certified by K(t) <= min(||A^theta0 x||, t ||A^theta1 x||):
    below t_lo the integrand is bounded by (t^(1-vartheta) ||x||_1)^q and
    above t_hi by (t^-vartheta ||x||_0)^q, both geometric.
    """
    if not (0 < vartheta < 1):
        raise NormsError("vartheta must lie in (0, 1)")
    q = _lq_exponent(q)
    lam, a = _diagonal_data(op, x)
    # the norm is positively homogeneous in a: it is computed on the
    # K-functional's data (a scaled by a power of two into [1/2, 1)), so
    # neither n0, n1, the t-range sized from them nor the q-th powers of K
    # under- or overflow for a tiny or huge x; a theta the K-functional
    # refuses is refused, and a q-th power that overflows reads as inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        data = _k_split_data(lam, a, theta0, theta1)
        n0, n1 = data.n0, data.n1
        if n0 == 0.0 or n1 == 0.0:
            return 0.0
        auto = quad is None
        if auto:
            # size the range from the envelope K(t) <= min(n0, t n1): its
            # integral M_env is closed-form and bounds the true one from above
            qf0 = 2.0 if q == np.inf else q
            center = n0 / max(n1, 1e-300)
            try:   # Python floats: an overflow raises, an underflow to 0 makes a division raise
                m_env = n0**qf0 * center ** (-vartheta * qf0) \
                    * (1.0 / ((1 - vartheta) * qf0) + 1.0 / (vartheta * qf0))
                budget = INTERPOLATION_TAIL_RTOL * m_env / 100.0
                t_lo = (budget * (1 - vartheta) * qf0) ** (1.0 / ((1 - vartheta) * qf0)) \
                    / n1 ** (1.0 / (1 - vartheta))
                t_hi = (n0**qf0 / (budget * vartheta * qf0)) ** (1.0 / (vartheta * qf0))
            except ArithmeticError:
                raise NormsError(f"q={q} is too large: its powers leave the float range") from None
            quad = QuadratureSpec(t_lo=min(t_lo, center * 1e-4),
                                  t_hi=max(t_hi, center * 1e4),
                                  nodes_per_decade=16)
        for _ in range(4):
            t, du = quad.nodes()
            kvals = _k_at(data, t)
            if q == np.inf:
                return float(np.ldexp(np.max(t**-vartheta * kvals), data.e))
            main = float(np.sum(du * (t**-vartheta * kvals) ** q))
            tail_lo = (t[0] ** (1 - vartheta) * n1) ** q / ((1 - vartheta) * q)
            tail_hi = (t[-1] ** -vartheta * n0) ** q / (vartheta * q)
            if (tail_lo + tail_hi) <= INTERPOLATION_TAIL_RTOL * max(main, 1e-300):
                return float(np.ldexp(main ** (1.0 / q), data.e))
            if not auto:
                break
            quad = QuadratureSpec(quad.t_lo * 1e-5, quad.t_hi * 1e5,
                                  quad.nodes_per_decade)
    raise NormsError("interpolation quadrature tails above tolerance; widen the range")


# -- norm specs -------------------------------------------------------------------

def _ensemble_kind(value) -> str:
    if value not in ENSEMBLE_KINDS:
        raise ValueError(f"must be one of {', '.join(ENSEMBLE_KINDS)}, got {value!r}")
    return value


def norm_from_spec(op: ModelOperator, spec: dict, seed: int):
    """The one reader of a norm spec.  The spec is read in full, and a
    function of no arguments is returned that builds (norm, echo): the
    norm, called on x, and the spec with every parameter resolved, for the
    report.  The norm of a stack kind is its NormPlan; ambient and
    real_interpolation are functions of x.

    Raises SpecKeyError for a key the kind does not read and SpecValueError
    for a spec that is not an object of a known kind or a value that does
    not read as its key needs; the build raises the norm's own error.
    """
    read = SpecReader(spec, "norm spec", (
        "ambient", "pl_square", "pl_random", "pl_inhomogeneous", "fractional_power",
        "kernel_plus_pl", "continuous_square", "besov_discrete", "besov_continuous",
        "real_interpolation", "strip_pl_square"))
    kind, pnorm = read.kind, read("pnorm", exponent, 2)
    echo = {"kind": kind, "pnorm": pnorm}
    if kind not in ("ambient", "kernel_plus_pl", "real_interpolation", "strip_pl_square"):
        theta = echo["theta"] = read("theta", finite, 1.0 if kind == "fractional_power" else 0.0)
    if kind in ("besov_discrete", "besov_continuous", "real_interpolation"):
        q = echo["q"] = read("q", exponent, 2)
    hom = build_homogeneous_dyadic()
    if kind == "ambient":
        make = lambda: lambda x: lp_norm(x, pnorm, op.measure)
    elif kind == "pl_square":
        make = lambda: _square_plan(op, hom, pnorm, theta)
    elif kind == "pl_random":
        # the draws and their norms are count x blocks and count x n arrays
        ens = RandomEnsemble(count=read("count", lambda v: array_size(v, per=op.n), 256),
                             kind=read("sign_kind", _ensemble_kind, "rademacher"),
                             seed=read("ensemble_seed", non_negative, seed + 104729))
        echo["ensemble"] = ens.to_json()
        make = lambda: _random_plan(op, hom, pnorm, ens, theta)
    elif kind == "pl_inhomogeneous":
        make = lambda: _inhomogeneous_plan(op, to_inhomogeneous(hom), pnorm, theta)
    elif kind == "fractional_power":
        def make():   # A^theta on the injective part, 0 on the kernel
            with np.errstate(over="ignore"):
                powed = np.where(op.nonzero, _spectral_argument(op), 1.0) ** theta * op.nonzero
            powed = _finite(powed, f"weights lambda^theta at theta={theta}")
            return _plan(op, pnorm, "fields", lambda: powed)
    elif kind == "kernel_plus_pl":
        def make():   # P x (op.kernel_component) is the field of the kernel indicator
            if op.injective:
                raise NormsError("operator has no kernel projection")
            windows = block_stack(op, hom)[1]
            return _plan(op, pnorm, "kernel_plus", lambda: windows)
    elif kind == "continuous_square":
        make_psi = symbol_from_spec(read("psi", None, {"kind": "psi_exp", "a": 1.0, "b": 1.0}))

        def make():
            psi = make_psi()
            echo["psi"] = psi.name
            return _continuous_square_plan(op, psi, theta, pnorm, None)
    elif kind == "besov_discrete":
        make = lambda: _besov_discrete_plan(op, hom, theta, q, pnorm)
    elif kind == "besov_continuous":
        # an absent "f" is the window of block 0; a present one is a symbol spec
        make_f = (symbol_from_spec(read("f")) if "f" in spec
                  else lambda: window_symbol(hom, 0))

        def make():
            f = make_f()
            echo["f"] = f.name
            return _besov_continuous_plan(op, theta, q, f, pnorm, None)
    elif kind == "real_interpolation":
        vartheta = echo["vartheta"] = read("vartheta", finite, 0.5)
        theta0 = echo["theta0"] = read("theta0", finite, 0.0)
        theta1 = echo["theta1"] = read("theta1", finite, 1.0)

        def make():
            if pnorm != 2:
                raise NormsError("real interpolation is implemented on the p = 2 path only")
            return lambda x: real_interpolation_norm(op, x, vartheta, q, theta0, theta1)
    else:
        # the square function of the equidistant blocks of B = log A
        make = lambda: _square_plan(op, build_equidistant(), pnorm, 0.0)
    read.done()
    return lambda: (make(), echo)
