"""Seeded, reportable experiments over the norm machinery.

run_equivalence draws unit-normalized random vectors, evaluates a pair of
norms on each, and reports ratio statistics against an optional assert
bracket.  The other entry points probe single identities: resolvent growth
along rays, convergence of the block expansion, reproduction of x from
the normalized integral of g(tA)x dt/t, and the operator-norm-to-
multiplier-norm ratio over sampled symbols.

Reports are deterministic given (config, seed): vectors are drawn from a
single seeded generator and evaluated in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import spectral_multiplier
from .measure import lp_norm
from .norms import QuadratureSpec, _dilation_integrals, _window_grid, evaluator_from_spec
from .operators import (
    ModelOperator,
    array_size,
    check_spec_keys,
    exponent,
    non_negative,
    operator_from_spec,
    spec_value,
)
from .partitions import HOMOGENEOUS, build_homogeneous_dyadic, padded_rows
from .symbols import FunctionFamily, Symbol, besov_family_norms


class ExperimentError(RuntimeError):
    pass


@dataclass
class EquivalenceReport:
    name: str
    operator_spec: dict
    norm_a: dict
    norm_b: dict
    samples: int
    seed: int
    ratios: dict = field(default_factory=dict)       # min / median / max
    table: list = field(default_factory=list)        # per-sample rows
    assert_bracket: list | None = None
    passed: bool = True
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "operator": self.operator_spec,
            "norm_a": self.norm_a,
            "norm_b": self.norm_b,
            "samples": self.samples,
            "seed": self.seed,
            "ratios": self.ratios,
            "table": self.table,
            "assert_bracket": self.assert_bracket,
            "passed": self.passed,
            "provenance": self.provenance,
        }


_PARTITION_CONSTANTS = {
    "bump": "chi(t) = g(2-t)/(g(2-t)+g(t-1)), g(s) = exp(-1/s) (s > 0)",
    "homogeneous": "phi0(t) = chi(t) - chi(2t), phi_n = phi0(2^-n .)",
    "inhomogeneous": "phi0 = chi, phi_n as homogeneous for n >= 1",
    "equidistant": "psi(t) = chi(t+1) - chi(t+2), psi_n = psi(. - n)",
}


def _float_pair(value) -> tuple:
    lo, hi = map(float, value)
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"bounds must be finite, got {value!r}")
    if lo > hi:
        raise ValueError(f"lower bound above upper bound, got {value!r}")
    return lo, hi


_CONFIG_KEYS = ("name", "operator", "seed", "samples", "pnorm", "norm_a", "norm_b",
                "assert_bracket")


def run_equivalence(config: dict) -> EquivalenceReport:
    """Ratio statistics of two norms over seeded unit random vectors.

    Raises SpecKeyError for a key nothing reads, and ExperimentError for a
    norm whose stack cannot be built for the operator ("norm not admitted"),
    a norm that fails on a sample, or a norm or ratio that is not finite
    (both name the sample).
    """
    where = "experiment config"
    check_spec_keys(config, _CONFIG_KEYS, where)
    op = operator_from_spec(config["operator"])
    seed = spec_value(config["seed"], non_negative, "seed", where)
    samples = spec_value(config.get("samples", 50), array_size, "samples", where)
    pnorm = spec_value(config.get("pnorm", 2), exponent, "pnorm", where)
    try:
        eval_a, echo_a = evaluator_from_spec(op, config["norm_a"], seed)
        eval_b, echo_b = evaluator_from_spec(op, config["norm_b"], seed)
    except (KeyError, TypeError):
        raise
    except Exception as exc:
        raise ExperimentError(f"norm not admitted: {exc}") from exc
    bracket = config.get("assert_bracket")
    if bracket is not None:
        lo, hi = spec_value(bracket, _float_pair, "assert_bracket", where)

    rng = np.random.default_rng(seed)
    table = []
    for i in range(samples):
        x = op.random_vector(rng)
        x = x / lp_norm(x, pnorm, op.measure)
        try:
            na = float(eval_a(x))
            nb = float(eval_b(x))
        except Exception as exc:
            raise ExperimentError(f"norm evaluation failed at sample {i}: {exc}") from exc
        ratio = na / nb if nb != 0 else np.inf
        if not np.all(np.isfinite([na, nb, ratio])):
            raise ExperimentError(f"non-finite result at sample {i}: norm_a={na!r}, "
                                  f"norm_b={nb!r}, ratio={ratio!r}")
        table.append({"sample_id": i, "norm_a": na, "norm_b": nb, "ratio": ratio})

    ratios = np.array([row["ratio"] for row in table])
    stats = {"min": float(np.min(ratios)), "median": float(np.median(ratios)),
             "max": float(np.max(ratios))}
    passed = True
    violations = []
    if bracket is not None:
        for row in table:
            row["in_bracket"] = bool(lo <= row["ratio"] <= hi)
            if not row["in_bracket"]:
                violations.append(row["sample_id"])
        passed = not violations
    report = EquivalenceReport(
        name=str(config.get("name", "equivalence")),
        operator_spec=op.spec, norm_a=echo_a, norm_b=echo_b,
        samples=samples, seed=seed, ratios=stats, table=table,
        assert_bracket=list(bracket) if bracket is not None else None,
        passed=passed,
        provenance={"partition": _PARTITION_CONSTANTS, "pnorm": pnorm,
                    "vector_draw": "iid complex gaussian spectral content, "
                                   "L^p-normalized; sample i is the i-th "
                                   "draw from default_rng(seed)",
                    "bracket_violations": violations},
    )
    return report


# -- resolvent growth -----------------------------------------------------------

SCAN_POINTS_PER_DECADE = 48   # radii of resolvent_scan's log grid per decade
SCAN_MARGIN = 2.0**10         # the grid spans [lambda_min / margin, margin lambda_max]


def resolvent_scan(op: ModelOperator, omegas) -> dict:
    """sup over |lambda| of ||lambda (lambda - A)^{-1}|| per ray arg = omega.

    At every point of the ray the norm is exact: op.multiplier_norm of the
    multiplier lambda / (lambda - lambda_k).  The log grid is augmented
    with the radii |lambda_k| / cos(omega - arg lambda_k) where
    |lambda| / |lambda - lambda_k| peaks, so for a normal operator the
    sup itself is exact.  A least-squares fit of log sup against
    -log omega estimates the growth order.
    """
    lam = op.eigenvalues_or_none()
    lam_nz = lam[op.nonzero]
    rows = []
    for omega in omegas:
        if omega <= op.sector_angle_hint:
            raise ExperimentError(f"ray angle {omega} intersects the spectral sector")
        radii = np.logspace(np.log10(op.lambda_min_positive / SCAN_MARGIN),
                            np.log10(op.lambda_max * SCAN_MARGIN),
                            int(SCAN_POINTS_PER_DECADE * (2 * np.log10(SCAN_MARGIN)
                                + np.log10(op.lambda_max / op.lambda_min_positive))))
        cos = np.cos(omega - np.angle(lam_nz))
        radii = np.concatenate([radii, np.abs(lam_nz[cos > 0]) / cos[cos > 0]])
        z = np.sort(radii)[:, None] * np.exp(1j * omega)
        sup = float(np.max(op.multiplier_norm(z / (z - lam[None, :]))))
        rows.append({"omega": float(omega), "sup": sup})
    x = np.array([-np.log(row["omega"]) for row in rows])
    y = np.array([np.log(row["sup"]) for row in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return {"rows": rows, "fitted_alpha": float(slope), "intercept": float(intercept)}


# -- convergence of the block expansion ------------------------------------------

def convergence_check(op: ModelOperator, partition, x, n_max: int,
                      permute_seed: int | None = None) -> dict:
    """Defect ||x - sum_{|n|<=N} window_n(A) x|| / ||x|| per N.

    The sum runs over the partition's indices, n >= 0 for the
    inhomogeneous kind (partition.first_index).  The windows are evaluated
    where the partition's kind places them on the spectrum, as in every
    block norm (norms._window_grid): the even windows at |lambda|, so a
    double-sector operator is admitted.  Once N covers the spectral range
    the defect must reach round-off.
    As an unconditionality probe, the fully-covered partial sum is also
    accumulated in a random order; the defect must not change beyond
    round-off (finite sums are order-independent).
    """
    x = np.asarray(x, dtype=complex)
    x = x - op.kernel_component(x)
    points = _window_grid(op, partition)[0]
    nx = np.linalg.norm(x)
    first = partition.first_index
    ns = np.arange(-n_max if first is None else max(first, -n_max), n_max + 1)
    # row i holds window_n(A) x for n = ns[i]
    blocks = spectral_multiplier(op, np.array([partition.window(n, points) for n in ns]), x)
    curve = []
    for n_cap in range(n_max + 1):
        acc = blocks[np.abs(ns) <= n_cap].sum(axis=0)
        curve.append({"N": n_cap, "defect": float(np.linalg.norm(x - acc) / max(nx, 1e-300))})
    order = np.arange(len(ns)) if permute_seed is None \
        else np.random.default_rng(permute_seed).permutation(len(ns))
    acc = blocks[order].sum(axis=0)
    permuted_defect = float(np.linalg.norm(x - acc) / max(nx, 1e-300))
    return {"curve": curve, "final_defect": curve[-1]["defect"],
            "permuted_defect": permuted_defect}


# -- reproduction from the normalized scale integral -----------------------------

def make_mcintosh_symbol(psi: Symbol) -> Symbol:
    """g = |psi|^2 / c with c = int |psi(t)|^2 dt/t computed independently.

    The constant comes from a very fine, very wide scalar log-trapezoid
    (2048 nodes/decade over [1e-12, 1e4]), so the residual of the operator
    quadrature is attributed to that quadrature, not to the constant.
    """
    t = np.logspace(-12, 4, 2048 * 16)
    vals = np.abs(np.asarray(psi(t), dtype=complex)) ** 2
    du = np.log(t[1] / t[0])
    c = float(du * (np.sum(vals) - 0.5 * (vals[0] + vals[-1])))

    decay = None
    if psi.decay is not None:
        decay = type(psi.decay)(eps0=2 * psi.decay.eps0, eps_inf=2 * psi.decay.eps_inf,
                                C=psi.decay.C**2 / c, sigma_max=psi.decay.sigma_max)
    return Symbol(
        evaluate=lambda s: np.abs(np.asarray(psi(s), dtype=complex)) ** 2 / c,
        name=f"normalized|{psi.name}|^2", params={"c": c},
        decay=decay,
    )


def mcintosh_check(op: ModelOperator, g: Symbol, x,
                   quad: QuadratureSpec | None = None) -> float:
    """Residual || int g(tA) x dt/t - x || / ||x|| for normalized g."""
    if g.decay is None:
        raise ExperimentError("reproduction check needs a certified-decay symbol")
    if quad is None:
        quad = QuadratureSpec.cover(op, margin=2.0**14)
    x = np.asarray(x, dtype=complex)
    x = x - op.kernel_component(x)
    t, du = quad.nodes()
    weights = _dilation_integrals(op, g, t, du)     # int g(t lambda_k) dt/t per k
    y = spectral_multiplier(op, weights.astype(complex), x)
    nx = np.linalg.norm(x)
    return float(np.linalg.norm(y - x) / max(nx, 1e-300))


# -- converse multiplier bound ----------------------------------------------------

def _dyadic_table(partition, t, n_lo: int, n_pad: int):
    """(k, chi, 1 - chi) of the partition's two-window rule at points t in
    (0, inf): f(t) = c_m chi + c_{m+1} (1 - chi), m its first live window
    (PartitionOfUnity.two_windows).  The coefficients are padded with two
    zeros on both sides (n_pad entries in all); k is the index of c_m
    there (partitions.padded_rows), clipped so that c_m and c_{m+1} are
    both pads, and read 0, for a point outside the blocks.  No coefficient
    enters the table.
    """
    m, chi, rest = partition.two_windows(t)
    return padded_rows(m, n_lo, n_pad - 4), chi, rest


def _two_window(c_pad: np.ndarray, k, chi, rest):
    """c_m chi + c_{m+1} (1 - chi) from a _dyadic_table: two gathers, at
    in-range indices, so they skip the bounds check."""
    out = c_pad[:-1].take(k, mode="wrap")
    out *= chi
    upper = c_pad[1:].take(k, mode="wrap")
    upper *= rest
    out += upper
    return out


def sample_dyadic_symbol(partition, coeffs: np.ndarray, n_lo: int) -> Symbol:
    """f = sum_n c_n window_n with |c_n| <= 1: a multiplier-bounded sample.

    Uses the two-window rule of the partition (_dyadic_table): one bump
    call per point, and c_m, c_{m+1} are two gathers from the zero-padded
    coefficients.  Points outside every block, t <= 0 and
    t = +-inf, give 0, and t = NaN gives NaN.
    """
    if partition.kind != HOMOGENEOUS:
        raise ExperimentError("sampled symbols use the homogeneous partition")
    c_pad = np.concatenate([[0.0, 0.0], coeffs.astype(complex), [0.0, 0.0]])

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        inside = (t > 0.0) & (t < np.inf)
        if not inside.all():
            return np.where(inside, evaluate(np.where(inside, t, 1.0)),
                            np.where(np.isnan(t), np.nan, 0.0))
        return _two_window(c_pad, *_dyadic_table(partition, t, n_lo, c_pad.size))

    return Symbol(evaluate=evaluate, name="dyadic_sample",
                  params={"n_lo": n_lo, "coeffs": [[c.real, c.imag] for c in coeffs]})


class DyadicSampleFamily(FunctionFamily):
    """y -> f_k(e^y) for the dyadic samples f_k of the rows of coeffs.

    Member k is the log-scale form of sample_dyadic_symbol(partition,
    coeffs[k], n_lo), the function mihlin_norm estimates.  Its table at
    the points y is _dyadic_table at e^y, which no coefficient enters, so
    the smoothness estimator builds it once per grid block for all the
    samples; a member then costs two gathers and the two-window sum, the
    arithmetic of the sample's own evaluate.  On the estimator's windows
    around a spectrum e^y is positive and finite, so the sample's guards
    never fire there.

    The support is the blocks' union, y in (ln2 (n_lo - 1), ln2 (n_lo +
    width)).  Outside it the table points into the zero padding.  Near its
    ends only the end block's window is live, and it holds 1 - chi(s) at
    s = 1 + d or chi(s) at s = 2 - d, where d is about the distance to
    the end: exp(-1/d) underflows to 0 for d below ~1e-3, so chi is
    exactly 1 or 0 and the sample exactly 0 (well beyond the
    SUPPORT_MARGIN the estimator needs).
    """

    def __init__(self, partition, coeffs: np.ndarray, n_lo: int):
        if partition.kind != HOMOGENEOUS:
            raise ExperimentError("sampled symbols use the homogeneous partition")
        self.partition = partition
        self.c_pad = np.pad(np.asarray(coeffs, dtype=complex), ((0, 0), (2, 2)))
        self.n_lo = n_lo
        self.size, width = np.shape(coeffs)
        self.support = (np.log(2.0) * (n_lo - 1), np.log(2.0) * (n_lo + width))

    def table(self, y):
        return _dyadic_table(self.partition, np.exp(y), self.n_lo, self.c_pad.shape[1])

    def member(self, table, k: int) -> np.ndarray:
        return _two_window(self.c_pad[k], *table)


def multiplier_bound_check(op: ModelOperator, alpha: float, trials: int,
                           seed: int, n_h: int = 73, n_x: int = 384) -> dict:
    """max over sampled f of ||f(A)||_{2->2} / ||f||_multiplier at p = 2.

    Samples put seeded random coefficients (|c_n| <= 1) on the homogeneous
    blocks active on the spectrum, placed by the rule of every block norm
    (norms._window_grid); the operator norm ||f(A)||_2 is exact
    (op.multiplier_norm), the spectral sup max |f(lambda_k)| only for an
    orthonormal eigenbasis.  The max ratio should be stable across
    operator sizes for the bound to be meaningful.

    The multiplier norms of all trials come from one smoothness-estimator
    sweep per grid (coarse, then refined) over the DyadicSampleFamily of
    the trials: the bump values and dyadic indices of the grid are shared,
    and each trial's norm is bit-identical to mihlin_norm of its sample
    (without the window-growth check).  Each row keeps the trial's
    refinement change ``refine_rel``, gated at STABILITY_RTOL as before;
    ``max_refine_rel`` is the largest.
    """
    hom = build_homogeneous_dyadic()
    lam, indices = _window_grid(op, hom)
    n_lo, width = indices.start, len(indices)
    rng = np.random.default_rng(seed)
    window = (np.log(op.lambda_min_positive) - 3.0, np.log(op.lambda_max) + 3.0)
    coeffs = np.empty((trials, width), dtype=complex)
    for trial in range(trials):
        phases = rng.uniform(0, 2 * np.pi, width)
        mags = rng.uniform(0.2, 1.0, width)
        coeffs[trial] = mags * np.exp(1j * phases)
    values = [np.where(op.nonzero, sample_dyadic_symbol(hom, c, n_lo)(lam), 0.0) for c in coeffs]
    opnorms = op.multiplier_norm(np.array(values)).tolist()
    estimates = besov_family_norms(DyadicSampleFamily(hom, coeffs, n_lo), alpha,
                                   window=window, n_x=n_x, n_h=n_h)
    rows = [{"trial": trial, "opnorm": opnorm, "mihlin": est.value,
             "ratio": opnorm / est.value, "refine_rel": est.method["refine_rel"]}
            for trial, (opnorm, est) in enumerate(zip(opnorms, estimates))]
    ratios = [row["ratio"] for row in rows]
    return {"rows": rows, "max_ratio": float(np.max(ratios)),
            "median_ratio": float(np.median(ratios)), "alpha": alpha,
            "max_refine_rel": max(row["refine_rel"] for row in rows)}
