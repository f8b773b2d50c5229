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

from .calculus import log_operator, spectral_multiplier
from .measure import lp_norm
from .norms import (
    NormsError,
    QuadratureSpec,
    RandomEnsemble,
    _dilation_table,
    _spectral_argument,
    besov_continuous_norm,
    besov_discrete_norm,
    continuous_square_norm,
    pl_inhomogeneous_norm,
    pl_random_norm,
    pl_square_norm,
    real_interpolation_norm,
)
from .operators import ModelOperator, SpecKeyError, check_spec_keys, operator_from_spec
from .partitions import (
    build_equidistant,
    build_homogeneous_dyadic,
    to_inhomogeneous,
)
from .symbols import Symbol, mihlin_norm, symbol_from_spec, window_symbol


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


def _norm_evaluator(op: ModelOperator, spec: dict, seed: int):
    """Closure computing one named norm of a vector; echoes resolved params.

    Raises SpecKeyError for a key the kind does not read.
    """
    spec = dict(spec)
    kind = spec.pop("kind")
    pnorm = spec.pop("pnorm", 2)
    hom = build_homogeneous_dyadic()

    if kind == "ambient":
        evaluate = lambda x: lp_norm(x, pnorm, op.measure)
        echo = {"kind": kind, "pnorm": pnorm}
    elif kind == "pl_square":
        theta = float(spec.pop("theta", 0.0))
        evaluate = lambda x: pl_square_norm(op, hom, x, pnorm, theta)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta}
    elif kind == "pl_random":
        theta = float(spec.pop("theta", 0.0))
        ens = RandomEnsemble(seed=int(spec.pop("ensemble_seed", seed + 104729)),
                             count=int(spec.pop("count", 256)),
                             kind=spec.pop("sign_kind", "rademacher"))
        evaluate = lambda x: pl_random_norm(op, hom, x, pnorm, ens, theta).mean
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "ensemble": ens.to_json()}
    elif kind == "pl_inhomogeneous":
        theta = float(spec.pop("theta", 0.0))
        inh = to_inhomogeneous(hom)
        evaluate = lambda x: pl_inhomogeneous_norm(op, inh, x, pnorm, theta)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta}
    elif kind == "fractional_power":
        theta = float(spec.pop("theta", 1.0))
        powed = np.where(op.nonzero, _spectral_argument(op), 1.0) ** theta * op.nonzero
        evaluate = lambda x: lp_norm(spectral_multiplier(op, powed, x), pnorm, op.measure)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta}
    elif kind == "kernel_plus_pl":
        if op.kernel_projection is None:
            raise ExperimentError("operator has no kernel projection")

        def evaluate(x):
            px = op.kernel_projection.p @ np.asarray(x, dtype=complex)
            return lp_norm(px, pnorm, op.measure) + pl_square_norm(op, hom, x, pnorm)

        echo = {"kind": kind, "pnorm": pnorm}
    elif kind == "continuous_square":
        theta = float(spec.pop("theta", 0.0))
        psi = symbol_from_spec(spec.pop("psi", {"kind": "psi_exp", "a": 1.0, "b": 1.0}))
        evaluate = lambda x: continuous_square_norm(op, psi, theta, x, pnorm)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "psi": psi.name}
    elif kind == "besov_discrete":
        theta = float(spec.pop("theta", 0.0))
        q = spec.pop("q", 2)
        evaluate = lambda x: besov_discrete_norm(op, hom, x, theta, q, pnorm)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "q": q}
    elif kind == "besov_continuous":
        theta = float(spec.pop("theta", 0.0))
        q = spec.pop("q", 2)
        fspec = spec.pop("f", None)
        f = symbol_from_spec(fspec) if fspec else window_symbol(hom, 0)
        evaluate = lambda x: besov_continuous_norm(op, x, theta, q, f, pnorm)
        echo = {"kind": kind, "pnorm": pnorm, "theta": theta, "q": q, "f": f.name}
    elif kind == "real_interpolation":
        vartheta = float(spec.pop("vartheta", 0.5))
        q = spec.pop("q", 2)
        theta0 = float(spec.pop("theta0", 0.0))
        theta1 = float(spec.pop("theta1", 1.0))
        evaluate = lambda x: real_interpolation_norm(op, x, vartheta, q, theta0, theta1)
        echo = {"kind": kind, "vartheta": vartheta, "q": q, "theta0": theta0, "theta1": theta1}
    elif kind == "strip_pl_square":
        strip = log_operator(op)
        equi = build_equidistant()
        evaluate = lambda x: pl_square_norm(strip, equi, x, pnorm)
        echo = {"kind": kind, "pnorm": pnorm}
    else:
        raise ExperimentError(f"unknown norm kind {kind!r}")
    if spec:
        raise SpecKeyError(spec, f"{kind} norm spec")
    return evaluate, echo


_CONFIG_KEYS = ("name", "operator", "seed", "samples", "pnorm", "norm_a", "norm_b",
                "assert_bracket")


def run_equivalence(config: dict) -> EquivalenceReport:
    """Ratio statistics of two norms over seeded unit random vectors.

    Raises SpecKeyError for a key nothing reads, and ExperimentError for a
    norm that the operator does not admit, a norm that fails, or a norm or
    ratio that is not finite.
    """
    check_spec_keys(config, _CONFIG_KEYS, "experiment config")
    op = operator_from_spec(config["operator"])
    seed = int(config["seed"])
    samples = int(config.get("samples", 50))
    pnorm = config.get("pnorm", 2)
    try:
        eval_a, echo_a = _norm_evaluator(op, config["norm_a"], seed)
        eval_b, echo_b = _norm_evaluator(op, config["norm_b"], seed)
    except NormsError as exc:
        raise ExperimentError(f"norm not admitted: {exc}") from exc
    bracket = config.get("assert_bracket")

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
        lo, hi = float(bracket[0]), float(bracket[1])
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

def resolvent_scan(op: ModelOperator, omegas, points_per_decade: int = 48,
                   margin: float = 2.0**10) -> dict:
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
        radii = np.logspace(np.log10(op.lambda_min_positive / margin),
                            np.log10(op.lambda_max * margin),
                            int(points_per_decade * (2 * np.log10(margin)
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

    Once N covers the spectral range the defect must reach round-off.
    As an unconditionality probe, the fully-covered partial sum is also
    accumulated in a random order; the defect must not change beyond
    round-off (finite sums are order-independent).
    """
    x = np.asarray(x, dtype=complex)
    if op.kernel_projection is not None:
        x = x - op.kernel_projection.p @ x
    lam = _spectral_argument(op)
    nx = np.linalg.norm(x)
    ns = range(-n_max, n_max + 1)
    # row n_max + n holds window_n(A) x
    blocks = spectral_multiplier(op, np.array([partition.window(n, lam) for n in ns]), x)
    curve = []
    for n_cap in range(n_max + 1):
        acc = blocks[n_max - n_cap:n_max + n_cap + 1].sum(axis=0)
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
    if op.kernel_projection is not None:
        x = x - op.kernel_projection.p @ x
    t, du = quad.nodes()
    gv = np.real(_dilation_table(op, g, t))
    weights = (du[:, None] * gv).sum(axis=0)     # int g(t lambda_k) dt/t per k
    y = spectral_multiplier(op, weights.astype(complex), x)
    nx = np.linalg.norm(x)
    return float(np.linalg.norm(y - x) / max(nx, 1e-300))


# -- converse multiplier bound ----------------------------------------------------

def sample_dyadic_symbol(partition, coeffs: np.ndarray, n_lo: int) -> Symbol:
    """f = sum_n c_n window_n with |c_n| <= 1: a multiplier-bounded sample.

    Uses the two-window locality of the dyadic family: with s = t 2^-m,
    m = floor(log2 t), only windows m and m+1 are alive and
    f(t) = c_m chi(s) + c_{m+1} (1 - chi(s)), one bump call per point.
    The coefficients are padded with a zero on both sides, so c_m and
    c_{m+1} are two gathers at clipped indices: an index outside the
    blocks lands on a pad and reads 0.  Points outside every block, t <= 0
    and t = inf, give 0, and t = NaN gives NaN.
    """
    from .partitions import HOMOGENEOUS

    if partition.kind != HOMOGENEOUS:
        raise ExperimentError("sampled symbols use the homogeneous partition")
    bump = partition.bump
    c_pad = np.concatenate([[0.0], coeffs.astype(complex), [0.0]])

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        inside = (t > 0.0) & (t < np.inf)
        if not inside.all():
            return np.where(inside, evaluate(np.where(inside, t, 1.0)),
                            np.where(np.isnan(t), np.nan, 0.0))
        m = np.floor(np.log2(np.maximum(t, 1e-300)))
        chi = bump(t * np.exp2(-m))
        i0 = (m - n_lo + 1).astype(int)   # index of c_m in c_pad
        c0 = c_pad.take(i0, mode="clip")
        c1 = c_pad.take(i0 + 1, mode="clip")
        return c0 * chi + c1 * (1.0 - chi)

    return Symbol(evaluate=evaluate, name="dyadic_sample",
                  params={"n_lo": n_lo, "coeffs": [[c.real, c.imag] for c in coeffs]})


def multiplier_bound_check(op: ModelOperator, alpha: float, trials: int,
                           seed: int, n_h: int = 73, n_x: int = 384) -> dict:
    """max over sampled f of ||f(A)||_{2->2} / ||f||_multiplier at p = 2.

    Samples put seeded random coefficients (|c_n| <= 1) on the dyadic
    blocks covering the spectrum; the operator norm ||f(A)||_2 is exact
    (op.multiplier_norm), the spectral sup max |f(lambda_k)| only for an
    orthonormal eigenbasis.  The max ratio should be stable across
    operator sizes for the bound to be meaningful.
    """
    from .partitions import build_homogeneous_dyadic

    hom = build_homogeneous_dyadic()
    lam = _spectral_argument(op)
    n_lo, n_hi = hom.active_range(op.lambda_min_positive, op.lambda_max)
    width = n_hi - n_lo + 1
    rng = np.random.default_rng(seed)
    window = (np.log(op.lambda_min_positive) - 3.0, np.log(op.lambda_max) + 3.0)
    rows = []
    for trial in range(trials):
        phases = rng.uniform(0, 2 * np.pi, width)
        mags = rng.uniform(0.2, 1.0, width)
        coeffs = mags * np.exp(1j * phases)
        f = sample_dyadic_symbol(hom, coeffs, n_lo)
        opnorm = float(op.multiplier_norm(np.where(op.nonzero, f(lam), 0.0)))
        mnorm = mihlin_norm(f, alpha, window=window, n_x=n_x, n_h=n_h,
                            check_window_growth=False).value
        rows.append({"trial": trial, "opnorm": opnorm, "mihlin": mnorm,
                     "ratio": opnorm / mnorm})
    ratios = [row["ratio"] for row in rows]
    return {"rows": rows, "max_ratio": float(np.max(ratios)),
            "median_ratio": float(np.median(ratios)), "alpha": alpha}


def type2_one_sided_check(op: ModelOperator, samples: int, seed: int,
                          pnorm=4) -> dict:
    """Empirical C in ||x||_p <= C (sum_n ||block_n x||_p^2)^(1/2) at p = 4.

    The constant is recorded, never asserted against a universal value.
    """
    from .partitions import build_homogeneous_dyadic

    hom = build_homogeneous_dyadic()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = op.random_vector(rng)
        x = x / lp_norm(x, pnorm, op.measure)
        blocks = besov_discrete_norm(op, hom, x, theta=0.0, q=2, pnorm=pnorm)
        worst = max(worst, 1.0 / blocks)
    return {"empirical_C": worst, "pnorm": pnorm, "samples": samples}
