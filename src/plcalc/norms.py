"""Block-decomposition norms: square sums, randomized sums, continuous
square functions, discrete/continuous Besov-type norms, fractional powers,
the kernel split, K-functionals and real interpolation norms.

Every block, square-function and Besov norm is a reduction over the
fields f_j(A)x of one stack of multipliers f_j: the weighted windows
2^(n theta) window_n, or the symbol at the quadrature nodes, psi(t_j .) or
f(t_j .).  Each norm has two halves.  Its evaluator (pl_square_evaluator,
...) builds the half that does not depend on x, in one pass, together with
the quadrature tail certificate; the closure it returns reduces the
coefficients of one x.  An experiment builds that half once and evaluates
every sample with it; the public norm functions build it per call.  A JSON
norm spec names its evaluator through one reader (evaluator_from_spec).  A
window stack is scattered from the partition's two-window rule, one bump
call for all windows (block_stack).

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

A reduction reads the fields in one of two ways, and this module is the
one place that chooses (_parseval):

  p = 2, orthonormal eigenbasis   by Parseval, ||f_j(A)x||_2^2 =
                                  sum_k |f_j(lambda_k)|^2 |<x, e_k>|^2: every
                                  norm hands its weights, built once, to the
                                  one energy reduction (_energy_reduction),
                                  so a vector costs one coefficient
                                  transform and one GEMV, and no synthesis.
                                  The weights are the stack squared (field
                                  norms) or summed over its rows (square
                                  functions); the continuous square
                                  function's are the integrals
                                  sum_j du_j t_j^(-2 theta) |psi(t_j lambda_k)|^2
                                  that its tail certificate divides by,
                                  reduced over node blocks without a table
                                  (_dilation_integrals);
  any other p, or a non-orthonormal basis (S diag S^-1)
                                  one coefficient transform and one
                                  synthesis of the whole stack, then L^p
                                  norms of the fields.

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
from dataclasses import dataclass

import numpy as np

from .calculus import log_trapezoid, spectral_multiplier
from .measure import lp_norm
from .operators import (ModelOperator, SpecKeyError, SpecValueError, array_size, exponent,
                        non_negative, spec_kind, spec_value)
from .partitions import (EQUIDISTANT, EVEN_BISECTORIAL, INHOMOGENEOUS, PartitionOfUnity,
                         build_equidistant, build_homogeneous_dyadic, padded_rows,
                         to_inhomogeneous)
from .symbols import BLOCK_POINTS, Symbol, symbol_from_spec, window_symbol


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


def _dilation_blocks(op: ModelOperator, f, t):
    """(rows, f(t_j lambda_k)) for the nodes t_j of each block of rows and
    every nonzero eigenvalue lambda_k: the (node, eigenvalue) grid walked in
    blocks of about symbols.BLOCK_POINTS points, so that f's temporaries
    stay block-sized."""
    lam = _spectral_argument(op)[op.nonzero]
    step = max(1, BLOCK_POINTS // lam.size)
    for j in range(0, t.size, step):
        rows = slice(j, j + step)
        yield rows, np.asarray(f(np.outer(t[rows], lam)))


def _dilation_table(op: ModelOperator, f, t) -> np.ndarray:
    """f(t_j lambda_k): row j for the node t_j, column k for the eigenvalue
    lambda_k, in the symbol's dtype (a real symbol gives a real table);
    kernel columns are 0.  Filled per node block (_dilation_blocks)."""
    table = None
    for rows, values in _dilation_blocks(op, f, t):
        if table is None:
            table = np.zeros((t.size, op.nonzero.size), dtype=values.dtype)
        table[rows, op.nonzero] = values
    return table


def _dilation_integrals(op: ModelOperator, f, t, w) -> np.ndarray:
    """sum_j w_j f(t_j lambda_k) for every eigenvalue lambda_k, 0 on the
    kernel, for a real integrand f.

    Each node block (_dilation_blocks) is reduced by one GEMV, so no table
    of f(t_j lambda_k) is held.
    """
    acc = 0.0
    for rows, values in _dilation_blocks(op, f, t):
        acc = acc + w[rows] @ values
    out = np.zeros(op.nonzero.size)
    out[op.nonzero] = acc
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


# -- reductions of the fields of a multiplier stack ----------------------------

def _parseval(op, pnorm) -> bool:
    """Whether L^p norms of fields are read off the coefficient energies:
    at p = 2 on an eigenbasis orthonormal in L^2(measure)."""
    return pnorm == 2 and op.orthonormal


def _energy_reduction(op, weights):
    """x -> (weights @ |<x, e_k>|^2)^(1/2), the one Parseval reduction: a
    (K,) weight vector gives a float, an (m, K) matrix the m norms, from
    one coefficient transform and one GEMV.  The weights are squares of
    multipliers, formed under np.errstate(over="ignore") and refused here
    if one overflowed (_finite)."""
    _finite(weights, "Parseval weights |f(lambda_k)|^2: a multiplier squared overflows")

    def evaluate(x):
        out = np.sqrt(weights @ np.square(np.abs(op.coefficients(x))))
        return out if out.ndim else float(out)

    return evaluate


def _field_evaluator(op, values, pnorm):
    """x -> ||f_j(A)x||_p for every row f_j of the multiplier stack
    ``values``; one multiplier of shape (K,) gives a number.  On the
    Parseval route the stack is squared once, |f_j(lambda_k)|^2."""
    if _parseval(op, pnorm):
        with np.errstate(over="ignore"):
            return _energy_reduction(op, np.square(np.abs(values)))
    return lambda x: lp_norm(spectral_multiplier(op, values, x), pnorm, op.measure)


def _square_evaluator(op, values, pnorm):
    """x -> || (sum_j |f_j(A)x|^2)^(1/2) ||_p over the rows f_j of
    ``values``.  On the Parseval route the stack is squared and summed over
    its rows once, to the weights sum_j |f_j(lambda_k)|^2."""
    if _parseval(op, pnorm):
        with np.errstate(over="ignore"):
            return _energy_reduction(op, np.square(np.abs(values)).sum(axis=0))

    def evaluate(x):
        fields = spectral_multiplier(op, values, x)
        return lp_norm(np.sqrt(np.sum(np.abs(fields) ** 2, axis=0)), pnorm, op.measure)

    return evaluate


# -- block norms ----------------------------------------------------------------

def pl_square_evaluator(op, p: PartitionOfUnity, pnorm=2, theta: float = 0.0):
    """x -> pl_square_norm(op, p, x, pnorm, theta), the window stack built once."""
    return _square_evaluator(op, block_stack(op, p, theta)[1], pnorm)


def pl_square_norm(op, p: PartitionOfUnity, x, pnorm=2, theta: float = 0.0) -> float:
    """|| ( sum_n |2^(n theta) window_n(A) x|^2 )^(1/2) ||_p."""
    return pl_square_evaluator(op, p, pnorm, theta)(x)


@dataclass
class PLRandomResult:
    mean: float
    stderr: float
    samples: np.ndarray


def pl_random_evaluator(op, p: PartitionOfUnity, pnorm, ens: RandomEnsemble,
                        theta: float = 0.0):
    """x -> pl_random_norm(op, p, x, pnorm, ens, theta), the window stack and
    the draws built once.

    The sum over blocks of one draw is the field of the multiplier
    sum_n eps_n 2^(n theta) window_n, so on the Parseval route each draw is
    one row of that signed stack, squared once; otherwise the blocks are
    synthesized and the draws combine them.
    """
    windows = block_stack(op, p, theta)[1]
    draws = ens.draws(len(windows))
    if _parseval(op, pnorm):
        with np.errstate(over="ignore"):
            sample_norms = _energy_reduction(op, np.square(draws @ windows))
    else:
        sample_norms = lambda x: lp_norm(draws @ spectral_multiplier(op, windows, x),
                                         pnorm, op.measure)

    def evaluate(x) -> PLRandomResult:
        samples = sample_norms(x)
        mean = float(np.mean(samples))
        stderr = float(np.std(samples, ddof=1) / np.sqrt(ens.count)) if ens.count > 1 else 0.0
        return PLRandomResult(mean, stderr, samples)

    return evaluate


def pl_random_norm(op, p: PartitionOfUnity, x, pnorm, ens: RandomEnsemble,
                   theta: float = 0.0) -> PLRandomResult:
    """Monte Carlo E || sum_n eps_n 2^(n theta) window_n(A) x ||_p.

    Returns the sample mean of the norm, its standard error, and the raw
    samples (their squares feed the square-sum consistency check).
    """
    return pl_random_evaluator(op, p, pnorm, ens, theta)(x)


def pl_inhomogeneous_evaluator(op, p: PartitionOfUnity, pnorm=2, theta: float = 0.0):
    """x -> pl_inhomogeneous_norm(op, p, x, pnorm, theta), the window stack built once."""
    if p.kind != INHOMOGENEOUS:
        raise NormsError("pass the inhomogeneous partition")
    if theta < 0:
        raise NormsError("inhomogeneous weights need theta >= 0")
    return pl_square_evaluator(op, p, pnorm, theta)


def pl_inhomogeneous_norm(op, p: PartitionOfUnity, x, pnorm=2, theta: float = 0.0) -> float:
    """Inhomogeneous variant: blocks phi_n, n >= 0, weights 2^(n theta) >= 1."""
    return pl_inhomogeneous_evaluator(op, p, pnorm, theta)(x)


def kernel_plus_pl_evaluator(op, p: PartitionOfUnity, pnorm):
    """x -> ||Px||_p + || (sum_n |window_n(A) x|^2)^(1/2) ||_p, P the
    projection onto the kernel (op.kernel_component), for an operator with
    a kernel.

    P is the spectral projection onto the kernel, so on the Parseval route
    both terms are energy reductions, of two weight rows: the kernel
    indicator and the windows' squares summed over the blocks.
    """
    if op.injective:
        raise NormsError("operator has no kernel projection")
    windows = block_stack(op, p)[1]
    if _parseval(op, pnorm):
        terms = _energy_reduction(op, np.vstack([~op.nonzero, np.square(windows).sum(axis=0)]))
        return lambda x: float(np.sum(terms(x)))
    square = _square_evaluator(op, windows, pnorm)
    return lambda x: lp_norm(op.kernel_component(x), pnorm, op.measure) + square(x)


def fractional_power_evaluator(op, theta: float, pnorm):
    """x -> ||A^theta x||_p, A^theta taken on the injective part (0 on the
    kernel)."""
    with np.errstate(over="ignore"):
        powed = np.where(op.nonzero, _spectral_argument(op), 1.0) ** theta * op.nonzero
    return _field_evaluator(op, _finite(powed, f"weights lambda^theta at theta={theta}"), pnorm)


# -- continuous square function -------------------------------------------------

SQUARE_TAIL_RTOL = 1e-8   # certified quadrature tails relative to the integral


def continuous_square_evaluator(op: ModelOperator, psi: Symbol, theta: float, pnorm=2,
                                quad: QuadratureSpec | None = None):
    """x -> continuous_square_norm(op, psi, theta, x, ...), its x-independent
    half built once.

    That half is the per-eigenvalue integral
    I_k = sum_j du_j t_j^(-2 theta) |psi(t_j lambda_k)|^2, reduced over node
    blocks (_dilation_integrals) without a (node, eigenvalue) table: it is
    both the denominator of the tail certificate and, on the Parseval route,
    the weight of |<x, e_k>|^2.  Only the synthesis route builds the table
    of the fields' multipliers.
    """
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
    integ = _dilation_integrals(op, lambda s: np.square(np.abs(psi(s))), t,
                                du * t ** (-2 * theta))
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
    if _parseval(op, pnorm):
        return _energy_reduction(op, integ)
    # pointwise square function: S(u)^2 = sum_j du t_j^(-2 theta) |psi(t_j A)x (u)|^2
    values = (du[:, None] ** 0.5) * t[:, None] ** (-theta) * _dilation_table(op, psi, t)
    return _square_evaluator(op, values, pnorm)


def continuous_square_norm(op: ModelOperator, psi: Symbol, theta: float, x,
                           pnorm=2, quad: QuadratureSpec | None = None) -> float:
    """|| ( int |t^-theta psi(tA) x|^2 dt/t )^(1/2) ||_p by log-trapezoid.

    psi must certify |psi(t)| <= C min(t^eps0, t^-eps_inf) with eps0 > theta
    and eps_inf > -theta, so the truncated integrand
    t^(-2 theta) |psi(t lambda)|^2 has certified geometric tails.
    """
    return continuous_square_evaluator(op, psi, theta, pnorm, quad)(x)


# -- Besov-type norms -----------------------------------------------------------

def _lq_exponent(q) -> float:
    """q as a float, inf for "inf": the one exponent rule of the Besov and
    interpolation norms, q >= 1."""
    q = np.inf if q == "inf" else float(q)
    if not q >= 1:
        raise NormsError("q must be >= 1 or inf")
    return q


def _lq_combine(values: np.ndarray, q: float, du) -> float:
    """(sum_j du_j values_j^q)^(1/q), the max for q = inf; q from _lq_exponent.
    A q-th power that overflows gives inf, which the caller refuses."""
    if q == np.inf:
        return float(np.max(values)) if values.size else 0.0
    with np.errstate(over="ignore"):
        return float(np.sum(du * values**q) ** (1.0 / q))


def besov_discrete_evaluator(op, p: PartitionOfUnity, theta: float, q, pnorm=2):
    """x -> besov_discrete_norm(op, p, x, theta, q, pnorm), the window stack
    and its weights built once."""
    q = _lq_exponent(q)
    indices, windows = block_stack(op, p)
    weights = _block_weights(indices, theta)
    field_norm = _field_evaluator(op, windows, pnorm)
    return lambda x: _lq_combine(weights * field_norm(x), q, 1.0)


def besov_discrete_norm(op, p: PartitionOfUnity, x, theta: float, q, pnorm=2) -> float:
    """( sum_n (2^(n theta) ||window_n(A) x||_p)^q )^(1/q); sup for q = inf."""
    return besov_discrete_evaluator(op, p, theta, q, pnorm)(x)


def besov_continuous_evaluator(op: ModelOperator, theta: float, q, f: Symbol,
                               pnorm=2, quad: QuadratureSpec | None = None):
    """x -> besov_continuous_norm(op, x, theta, q, f, ...), the dilation table
    built once."""
    _check_besov_symbol(f, theta)
    q = _lq_exponent(q)
    if quad is None:
        quad = QuadratureSpec.cover(op)
    t, du = quad.nodes()
    with np.errstate(over="ignore"):
        weights = _finite(t**-theta, f"weights t^-theta at theta={theta}")
    field_norm = _field_evaluator(op, _dilation_table(op, f, t), pnorm)
    return lambda x: _lq_combine(weights * field_norm(x), q, du)


def besov_continuous_norm(op: ModelOperator, x, theta: float, q, f: Symbol,
                          pnorm=2, quad: QuadratureSpec | None = None) -> float:
    """( int (t^-theta ||f(tA)x||_p)^q dt/t )^(1/q) by log-trapezoid.

    Admitted f: compactly supported window symbols, psi_exp with a > theta,
    or res_frac t^a (1+t)^-b with 0 < a - theta < b (the block-summed
    multiplier criterion holds for these); anything else needs a decay
    certificate with eps0 > theta.
    """
    return besov_continuous_evaluator(op, theta, q, f, pnorm, quad)(x)


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


def k_functional(op: ModelOperator, x, t, theta0: float, theta1: float):
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
    The path's two ends, c = 1e-30 and 1e30, tell which t have the sign
    change; a safeguarded Newton iteration in ln c closes each root to
    K_ROOT_WIDTH, all t at once, and raises NormsError if one is not closed
    in K_ROOT_ITERS path evaluations; each path evaluation is one GEMM (see
    _split_path and _stationary_splits).
    """
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
    # K is positively homogeneous in a: scaling a by a power of two into
    # [1/2, 1) is exact, and no square of a tiny or huge x under- or overflows
    _, e = np.frexp(np.max(a, initial=0.0))
    a = np.ldexp(a, -e)
    u = lam**theta0
    v = lam**theta1
    va = v * a
    rho = (u / v) ** 2
    sq = np.empty((a.size, 2))
    np.multiply(u, a, out=sq[:, 0])
    np.multiply(va, rho, out=sq[:, 1])
    np.square(sq, out=sq)                                     # [(u a)^2, (v a rho)^2]
    k = np.minimum(np.sqrt(np.sum(sq[:, 0])),                 # x0 = x
                   t * np.sqrt(np.sum(va**2)))                # x1 = x
    idx, _, c, s = _stationary_splits(t, rho, sq)
    if idx.size:
        k[idx] = np.minimum(np.sqrt(s[:, 0]) + t[idx] * c * np.sqrt(s[:, 1]), k[idx])
    return np.ldexp(k, e)


# The root solve of the stationary split: the path's two ends decide which t
# have a root, and a safeguarded Newton iteration in ln c closes it, mostly
# in four or five path evaluations.  A root located to K_ROOT_WIDTH in ln c
# leaves K exact to second order; |phi| <= K_ROOT_FLAT is met only where the
# path is flat, so that K no longer depends on c; K_ROOT_ITERS evaluations
# without either raise NormsError
_C_ENDS = np.logspace(-30, 30, 2)
_LN_C_ENDS = np.log(_C_ENDS)
K_ROOT_WIDTH = 1e-9
K_ROOT_FLAT = 1e-13
K_ROOT_ITERS = 40


def _split_path(c, rho, sq) -> np.ndarray:
    """(3, len(c), 2): at every entry of c, the sums (mu^2, (nu/c)^2) of the
    split y = a/(1 + c rho), then the two sums whose multiples by -2 are
    their first and second derivatives in ln c.

    With a - y = c a rho/(1 + c rho) both are sums over k of
    w_k = (1 + c rho_k)^-2 times a column of sq = [(u a)^2, (v a rho)^2].
    With q = c rho/(1 + c rho), dw/d(ln c) = -2 w q and
    d(w q)/d(ln c) = w q (1 - 3 q), so the weight rows w, w q and
    w q (1 - 3 q) give all six sums in one GEMM, and nothing cancels at
    extreme c.
    """
    m = c.size
    w = np.empty((3, m, rho.size))
    w0, w1, w2 = w
    np.multiply.outer(c, rho, out=w1)
    np.add(w1, 1.0, out=w0)
    np.reciprocal(w0, out=w0)          # 1/(1 + c rho)
    w1 *= w0                           # q
    np.square(w0, out=w0)              # w
    np.multiply(w1, -3.0, out=w2)
    w2 += 1.0                          # 1 - 3 q
    w1 *= w0                           # w q
    w2 *= w1                           # w q (1 - 3 q)
    return (w.reshape(3 * m, -1) @ sq).reshape(3, m, 2)


def _stationary_splits(t, rho, sq):
    """(idx, bracket, c, s): the entries idx of t whose residual changes
    sign, a (2, len(idx)) interval in ln c holding each root, the point c
    taken for it and (mu^2, (nu/c)^2) there, one row each.

    The residual phi = ln((nu/c)^2) - ln(t^2 mu^2) is nonincreasing in
    c and changes sign at most once, so a t has a root exactly when
    phi > 0 at the path's first end and phi <= 0 at its last: one 2-row
    path evaluation serves every t, and a t without a sign change is left
    out, as a boundary split wins.  Each root is then found by a
    safeguarded Newton iteration in ln c (rtsafe), vectorised over t and
    started at ln c = -ln t^2.  Its step is Newton's step on the local
    model phi ~ alpha + beta c^k, k = phi''/phi' (derivatives in ln c),
    that is, Newton in c^k: near both ends phi approaches its limit like
    c^(+-1), where the plain step in ln c shrinks by less than half per
    step and the safeguard would bisect a bracket up to 138 wide.  Where
    the model has no root (1 + k delta <= 0, delta the plain step) the
    plain step is proposed.

    Every evaluation narrows its t's bracket by the sign of phi.  Then,
    before the safeguard, a t stops when its step is at most K_ROOT_WIDTH
    (interval: the point and the step's end), when |phi| <= K_ROOT_FLAT
    (the point itself) or when its bracket is K_ROOT_WIDTH wide (the
    bracket).  Otherwise the step is taken if it lands strictly inside the
    bracket and is at most half the step before last, and the bracket is
    bisected if not.  K_ROOT_ITERS evaluations without a stop raise
    NormsError.
    """
    ends = _split_path(_C_ENDS, rho, sq)[0]
    t2 = t**2
    # read without a division: at a = 0 (mu = nu = 0) no t changes sign
    idx = np.flatnonzero((ends[0, 1] > t2 * ends[0, 0]) & (ends[1, 1] <= t2 * ends[1, 0]))
    bracket = np.empty((2, idx.size))
    c = np.empty(idx.size)
    s = np.empty((idx.size, 2))
    if not idx.size:
        return idx, bracket, c, s
    ln_t2 = np.log(t2[idx])
    lo, hi = np.repeat(_LN_C_ENDS[:, None], idx.size, axis=1)
    x = np.where((lo < -ln_t2) & (-ln_t2 < hi), -ln_t2, 0.0)
    last = hi - lo
    half_before_last = 0.5 * last
    live = np.arange(idx.size)
    evaluations = 0
    # a sum that underflows, a zero slope or k = 0 make the step NaN or
    # infinite, and the safeguard bisects
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            if evaluations == K_ROOT_ITERS:
                raise NormsError(f"K-functional root at t = {t[idx[live[0]]]:.17g} not "
                                 f"closed in {K_ROOT_ITERS} path evaluations")
            evaluations += 1
            path = _split_path(np.exp(x), rho, sq)
            phi = np.log(path[0, :, 1] / path[0, :, 0])
            phi -= ln_t2
            ratio = path[1:] / path[0]
            # phi' = -2 eta, phi'' = -2 zeta - 4 eta (sum of path[1]/path[0])
            eta, zeta = ratio[..., 1] - ratio[..., 0]
            sigma = ratio[0, :, 1] + ratio[0, :, 0]
            k = zeta / eta
            k += sigma
            k += sigma
            delta = phi / (eta + eta)          # the plain Newton step
            kd = k * delta
            step = np.log1p(kd) / k
            np.copyto(step, delta, where=~(kd > -1.0))
            newton = x + step
            np.abs(step, out=step)
            above = phi > 0
            np.copyto(lo, x, where=above)
            np.copyto(hi, x, where=~above)
            done = np.minimum(step, hi - lo) <= K_ROOT_WIDTH
            done |= np.abs(phi) <= K_ROOT_FLAT
            finished = np.count_nonzero(done)
            if finished:
                # the interval: the point and the step's end, the point alone
                # on a flat path, or else the bracket
                end = np.where(above, hi, lo)
                np.copyto(end, np.minimum(np.maximum(newton, lo), hi), where=step <= K_ROOT_WIDTH)
                np.copyto(end, x, where=np.abs(phi) <= K_ROOT_FLAT)
                at, xd, end = live[done], x[done], end[done]
                bracket[:, at] = np.minimum(xd, end), np.maximum(xd, end)
                c[at], s[at] = np.exp(xd), path[0, done]
                if finished == live.size:
                    return idx, bracket, c, s
                keep = ~done
                live, x, lo, hi = live[keep], x[keep], lo[keep], hi[keep]
                newton, step, ln_t2 = newton[keep], step[keep], ln_t2[keep]
                last, half_before_last = last[keep], half_before_last[keep]
            newton_ok = (lo < newton) & (newton < hi) & (step <= half_before_last)
            nxt = lo + hi
            nxt *= 0.5
            np.copyto(nxt, newton, where=newton_ok)
            half_before_last, last = 0.5 * last, np.abs(nxt - x)
            x = nxt


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
    if a.size == 0:
        return 0.0
    # the norm is positively homogeneous in a: it is computed for a scaled
    # by a power of two into [1/2, 1), exactly, so that neither the envelope
    # norms n0, n1, the t-range sized from them nor the q-th powers of K
    # under- or overflow for a tiny or huge x
    _, e = np.frexp(np.max(a))
    a_unit = np.ldexp(a, -e)
    with np.errstate(over="ignore"):
        n0 = float(np.sqrt(np.sum((lam**theta0 * a_unit) ** 2)))
        n1 = float(np.sqrt(np.sum((lam**theta1 * a_unit) ** 2)))
    _finite([n0, n1], f"envelope norms ||A^theta0 x||_2, ||A^theta1 x||_2 at "
                      f"theta0={theta0}, theta1={theta1}")
    if n0 == 0.0 or n1 == 0.0:
        return 0.0
    auto = quad is None
    if auto:
        # size the range from the envelope K(t) <= min(n0, t n1): its
        # integral M_env is closed-form and bounds the true one from above
        qf0 = 2.0 if q == np.inf else q
        center = n0 / max(n1, 1e-300)
        m_env = n0**qf0 * center ** (-vartheta * qf0) \
            * (1.0 / ((1 - vartheta) * qf0) + 1.0 / (vartheta * qf0))
        budget = INTERPOLATION_TAIL_RTOL * m_env / 100.0
        t_lo = (budget * (1 - vartheta) * qf0) ** (1.0 / ((1 - vartheta) * qf0)) \
            / n1 ** (1.0 / (1 - vartheta))
        t_hi = (n0**qf0 / (budget * vartheta * qf0)) ** (1.0 / (vartheta * qf0))
        quad = QuadratureSpec(t_lo=min(t_lo, center * 1e-4),
                              t_hi=max(t_hi, center * 1e4),
                              nodes_per_decade=16)
    for _ in range(4):
        t, du = quad.nodes()
        kvals = _k_functional_diagonal(lam, a_unit, t, theta0, theta1)
        if q == np.inf:
            return float(np.ldexp(np.max(t**-vartheta * kvals), e))
        main = float(np.sum(du * (t**-vartheta * kvals) ** q))
        tail_lo = (t[0] ** (1 - vartheta) * n1) ** q / ((1 - vartheta) * q)
        tail_hi = (t[-1] ** -vartheta * n0) ** q / (vartheta * q)
        if (tail_lo + tail_hi) <= INTERPOLATION_TAIL_RTOL * max(main, 1e-300):
            return float(np.ldexp(main ** (1.0 / q), e))
        if not auto:
            break
        quad = QuadratureSpec(quad.t_lo * 1e-5, quad.t_hi * 1e5,
                              quad.nodes_per_decade)
    raise NormsError("interpolation quadrature tails above tolerance; widen the range")


# -- norm specs -------------------------------------------------------------------

def evaluator_from_spec(op: ModelOperator, spec: dict, seed: int):
    """(evaluate, echo): the evaluator of the norm a JSON spec names, and the
    spec with every parameter resolved, for the report.

    The one reader of a norm spec: its multiplier stack is built here, once,
    and reused for every vector.  Raises SpecKeyError for a key the kind does
    not read, SpecValueError for a spec that is not an object of a known
    kind or a value that does not read as its key needs, and the norm's own
    error for a stack that cannot be built.
    """
    kind = spec_kind(spec, "norm")
    spec = {key: value for key, value in spec.items() if key != "kind"}
    where = f"{kind} norm spec"

    def number(key, default, convert=float):
        return spec_value(spec.pop(key, default), convert, key, where)

    pnorm = number("pnorm", 2, exponent)
    hom = build_homogeneous_dyadic()
    if kind == "ambient":
        evaluate = lambda x: lp_norm(x, pnorm, op.measure)
        echo = {"kind": kind, "pnorm": pnorm}
    elif kind == "pl_square":
        theta = number("theta", 0.0)
        evaluate = pl_square_evaluator(op, hom, pnorm, theta)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta}
    elif kind == "pl_random":
        theta = number("theta", 0.0)
        # the draws and their norms are count x blocks and count x n arrays
        count = number("count", 256, lambda v: array_size(v, per=op.n))
        sign_kind = spec.pop("sign_kind", "rademacher")
        if sign_kind not in ENSEMBLE_KINDS:
            raise SpecValueError("sign_kind", where,
                                 f"must be one of {', '.join(ENSEMBLE_KINDS)}, got {sign_kind!r}")
        ens = RandomEnsemble(seed=number("ensemble_seed", seed + 104729, non_negative),
                             count=count, kind=sign_kind)
        random_norm = pl_random_evaluator(op, hom, pnorm, ens, theta)
        evaluate = lambda x: random_norm(x).mean
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "ensemble": ens.to_json()}
    elif kind == "pl_inhomogeneous":
        theta = number("theta", 0.0)
        evaluate = pl_inhomogeneous_evaluator(op, to_inhomogeneous(hom), pnorm, theta)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta}
    elif kind == "fractional_power":
        theta = number("theta", 1.0)
        evaluate = fractional_power_evaluator(op, theta, pnorm)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta}
    elif kind == "kernel_plus_pl":
        evaluate = kernel_plus_pl_evaluator(op, hom, pnorm)
        echo = {"kind": kind, "pnorm": pnorm}
    elif kind == "continuous_square":
        theta = number("theta", 0.0)
        psi = symbol_from_spec(spec.pop("psi", {"kind": "psi_exp", "a": 1.0, "b": 1.0}))
        evaluate = continuous_square_evaluator(op, psi, theta, pnorm)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "psi": psi.name}
    elif kind == "besov_discrete":
        theta = number("theta", 0.0)
        q = number("q", 2, exponent)
        evaluate = besov_discrete_evaluator(op, hom, theta, q, pnorm)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "q": q}
    elif kind == "besov_continuous":
        theta = number("theta", 0.0)
        q = number("q", 2, exponent)
        fspec = spec.pop("f", None)
        f = symbol_from_spec(fspec) if fspec else window_symbol(hom, 0)
        evaluate = besov_continuous_evaluator(op, theta, q, f, pnorm)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "q": q, "f": f.name}
    elif kind == "real_interpolation":
        if pnorm != 2:
            raise NormsError("real interpolation is implemented on the p = 2 path only")
        vartheta = number("vartheta", 0.5)
        q = number("q", 2, exponent)
        theta0 = number("theta0", 0.0)
        theta1 = number("theta1", 1.0)
        evaluate = lambda x: real_interpolation_norm(op, x, vartheta, q, theta0, theta1)
        echo = {"kind": kind, "pnorm": pnorm, "vartheta": vartheta, "q": q,
                "theta0": theta0, "theta1": theta1}
    elif kind == "strip_pl_square":
        # the square function of the equidistant blocks of B = log A
        evaluate = pl_square_evaluator(op, build_equidistant(), pnorm)
        echo = {"kind": kind, "pnorm": pnorm}
    else:
        raise SpecValueError("kind", "norm spec", f"unknown norm kind {kind!r}")
    if spec:
        raise SpecKeyError(spec, where)
    return evaluate, echo
