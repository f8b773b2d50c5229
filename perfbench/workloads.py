"""The four workloads: fixed job lists, seeded inputs, and output checks.

A job is one user-level call: one ``plcalc experiment run`` or ``plcalc
norm eval`` through the in-process ``plcalc.cli.main``, one
``real_interpolation_norm``, one K-curve (``k_functional`` over a log
t-grid), one ``apply_contour`` or one ``multiplier_bound_check`` trial set.

The job list of a workload (kinds, operators, sizes, sample counts) is
fixed.  Only vectors, ensemble and coefficient seeds, and the random
parameters of ``oneshot_eval`` operators follow the seed, through
``numpy.random.default_rng([seed, pass_index])``.

Why each workload exists (the layer it loads, and what it leaves out):

equivalence_sweep  the paper's experiment traffic: per-sample coefficient
                   transforms and per-block synthesis, no K-functional,
                   contour or smoothness estimator.
oneshot_eval       nothing shared across jobs: eigen-build, Gram validation
                   and CLI I/O, so precomputation per operator shows its cost.
interp_kfunc       the scalar K-functional loop and its minimize_scalar
                   fallback, almost no block synthesis.
calculus_symbols   contour quadrature with per-node resolvents, and the
                   iterated-difference smoothness estimator; no block norms.

Every output is checked outside the timed region against brackets and
oracles the package states, whatever the seed.  A check returns a few
floats (a digest); for the default seed the pass-0 digests are compared
with the values recorded at the seed commit in ``reference.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SQRT_HALF = 2.0**-0.5
BRACKET_TOL = 1e-9          # slack on the [2^-1/2, 1] sandwich
CONT_SQUARE_TOL = 1e-6      # continuous_square(psi_exp(1,1), theta 0) = ||x|| / 2
CONTOUR_RTOL = 1e-8         # contour route against the spectral route
KCURVE_TOL = 1e-9           # monotone / concave / envelope slack, relative
REFERENCE_RTOL = 1e-9       # default-seed digests against reference.json
DEFAULT_SEED = 1


class CheckError(AssertionError):
    """A job's output failed its check."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


@dataclass
class Job:
    label: str                   # unique within a pass
    key: str                     # warm-up runs the first job of each key
    run: Callable[[], object]    # the timed call
    check: Callable[[object], list]   # untimed; raises CheckError, returns digest
    outputs: list = field(default_factory=list)   # files the job writes


# -- operators -------------------------------------------------------------------

def _hermite_spec(k, grid_n=None):
    # width sqrt(2 lambda_max) + 5 keeps the Hermite Gram defect under 1e-6
    half = round(float(np.sqrt(2.0 * (2.0 * k + 1.0)) + 5.0), 3)
    return {"kind": "hermite", "d": 1, "K": k,
            "grid": {"lo": -half, "hi": half, "n": grid_n or max(500, 40 * k)}}


def _graph_sigma(n, rng):
    """Symmetric weights with unit loops and a path backbone (connected)."""
    w = rng.uniform(0.0, 1.0, (n, n))
    w = np.where(w > 0.8, w, 0.0)
    w = np.triu(w, 1)
    w[np.arange(n - 1), np.arange(1, n)] += 1.0
    w = w + w.T
    np.fill_diagonal(w, 1.0)
    return np.round(w, 6).tolist()


def _real_nonnormal_spec(n, seed):
    lams = np.geomspace(0.01, 4.0, n)
    return {"kind": "nonnormal", "lambdas": [[float(v), 0.0] for v in lams],
            "conditioning": 10.0, "seed": seed}


# -- CLI jobs --------------------------------------------------------------------

def _cli_job(label, key, argv, config, workdir, check):
    from plcalc import cli

    cfg = os.path.join(workdir, f"{label}.config.json")
    out = os.path.join(workdir, f"{label}.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    full = argv + ["--config", cfg, "--out", out, "--quiet"]
    outputs = [out] + ([out[:-5] + ".csv"] if argv[0] == "experiment" else [])

    def run():
        return cli.main(full)

    def checked(rc):
        require(rc == 0, f"{label}: exit code {rc}")
        with open(out) as fh:
            return check(json.load(fh))

    return Job(label, key, run, checked, outputs)


def _ratio_bracket(lo, hi):
    def check(rows):
        worst = [r["ratio"] for r in rows if not lo - BRACKET_TOL <= r["ratio"] <= hi + BRACKET_TOL]
        require(not worst, f"ratio {worst[:1]} outside [{lo}, {hi}]")
    return check


def _half_norm(rows):
    err = max(abs(r["norm_a"] - 0.5 * r["norm_b"]) for r in rows)
    require(err <= CONT_SQUARE_TOL, f"continuous square off ||x||/2 by {err:.2e}")


def _finite_positive(rows):
    require(all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rows),
            "non-finite or nonpositive ratio")


# Per norm kind: norm spec, row check, assert_bracket passed to the CLI.
_SWEEP_NORMS = {
    "pl_square": ({"kind": "pl_square", "pnorm": 2}, _ratio_bracket(SQRT_HALF, 1.0), True),
    "pl_random": ({"kind": "pl_random", "pnorm": 2, "count": 256}, _finite_positive, False),
    "pl_inhomogeneous": ({"kind": "pl_inhomogeneous", "pnorm": 2},
                         _ratio_bracket(SQRT_HALF, 1.0), True),
    # theta = 0, q = 2, p = 2: equal to pl_square, so the same sandwich holds
    "besov_discrete": ({"kind": "besov_discrete", "pnorm": 2, "theta": 0.0, "q": 2},
                       _ratio_bracket(SQRT_HALF, 1.0), True),
    "strip_pl_square": ({"kind": "strip_pl_square", "pnorm": 2},
                        _ratio_bracket(SQRT_HALF, 1.0), True),
    # graph Laplacians: ||Px|| + PL(x) within [2^-1/2, 2^1/2]
    "kernel_plus_pl": ({"kind": "kernel_plus_pl", "pnorm": 2},
                       _ratio_bracket(SQRT_HALF, np.sqrt(2.0)), False),
    "continuous_square": ({"kind": "continuous_square", "pnorm": 2, "theta": 0.0,
                           "psi": {"kind": "psi_exp", "a": 1.0, "b": 1.0}}, _half_norm, False),
}

_SWEEP_SAMPLES = 6
_SWEEP_GRAPH = _graph_sigma(48, np.random.default_rng(2024))
# Operators run against the sandwich only where it holds: orthonormal
# eigenbases with real spectrum (the nonnormal basis is not orthonormal).
# Norm kinds are repeated (with fresh vectors) so that the median and p90
# of job latency fall inside a group of equal-cost jobs (d256 pl_square and
# d512 pl_square here); a percentile between two job costs would jump from
# run to run with small timing noise.
_SWEEP_LIST = [
    ("d256", {"kind": "dirichlet1d", "n": 256, "h": 1.0},
     {"pl_square": 4, "pl_random": 1, "pl_inhomogeneous": 2, "besov_discrete": 1,
      "strip_pl_square": 1, "continuous_square": 1}),
    ("d512", {"kind": "dirichlet1d", "n": 512, "h": 1.0},
     {"pl_square": 3, "pl_random": 1, "besov_discrete": 1, "strip_pl_square": 1}),
    ("hermite32", _hermite_spec(32),
     {"pl_square": 2, "pl_random": 1, "pl_inhomogeneous": 1, "strip_pl_square": 2,
      "continuous_square": 1}),
    ("graph48", {"kind": "graph", "sigma": _SWEEP_GRAPH},
     {"kernel_plus_pl": 3, "pl_random": 1, "pl_square": 2}),
    ("nonnormal96", _real_nonnormal_spec(96, 3),
     {"pl_square": 1, "pl_random": 1, "besov_discrete": 1, "strip_pl_square": 1}),
]


def _sweep_job(label, op_spec, norm_kind, seed, workdir, sandwich_ok=True):
    norm, row_check, bracketed = _SWEEP_NORMS[norm_kind]
    if not sandwich_ok:
        row_check, bracketed = _finite_positive, False
    config = {"name": label, "operator": op_spec, "norm_a": norm,
              "norm_b": {"kind": "ambient", "pnorm": 2}, "samples": _SWEEP_SAMPLES}
    if bracketed:
        config["assert_bracket"] = [SQRT_HALF - BRACKET_TOL, 1.0 + BRACKET_TOL]

    def check(report):
        rows = report["table"]
        require(len(rows) == _SWEEP_SAMPLES, "wrong sample count")
        require(report["passed"], "assert bracket failed")
        row_check(rows)
        return [report["ratios"]["min"], report["ratios"]["median"], report["ratios"]["max"]]

    return _cli_job(label, f"experiment:{norm_kind}",
                    ["experiment", "run", "--seed", str(seed)], config, workdir, check)


class EquivalenceSweep:
    def jobs(self, rng, workdir):
        out = []
        for op_name, spec, kinds in _SWEEP_LIST:
            for kind, count in kinds.items():
                # pl_square on a graph leaves out the kernel: no sandwich
                ok = not (op_name.startswith("graph") and kind == "pl_square") \
                    and not op_name.startswith("nonnormal")
                out += [_sweep_job(f"{op_name}-{kind}-{i}", spec, kind,
                                   int(rng.integers(2**31)), workdir, ok)
                        for i in range(count)]
        return out


# -- oneshot_eval -------------------------------------------------------------------

def _oneshot_check(kind, op_kind):
    def check(payload):
        v = payload["norm"]
        require(np.isfinite(v) and v > 0, f"norm {v} not finite positive")
        # the CLI normalises the vector, so ||x|| = 1
        if kind == "continuous_square":
            require(abs(v - 0.5) <= CONT_SQUARE_TOL, f"continuous square {v} != 1/2")
        elif kind == "kernel_plus_pl":
            require(SQRT_HALF - BRACKET_TOL <= v <= np.sqrt(2.0) + BRACKET_TOL,
                    f"split norm {v} outside [2^-1/2, 2^1/2]")
        elif kind in ("pl_square", "besov_discrete", "strip_pl_square",
                      "pl_inhomogeneous") and op_kind not in ("graph", "nonnormal"):
            require(SQRT_HALF - BRACKET_TOL <= v <= 1.0 + BRACKET_TOL,
                    f"norm {v} outside [2^-1/2, 1]")
        return [v]
    return check


class OneshotEval:
    """Each job builds its own operator from a spec whose random parameters
    (grid spacing, Hermite grid size, graph weights, similarity seed)
    follow the seed, so no two jobs of a run share an operator."""

    @staticmethod
    def _ops():
        def h(rng):
            return round(float(rng.uniform(0.9, 1.1)), 6)

        def dirichlet(n):
            return lambda rng: {"kind": "dirichlet1d", "n": n, "h": h(rng)}

        def schrodinger(n):
            return lambda rng: {"kind": "schrodinger", "n": n, "h": h(rng),
                                "V": {"quadratic": 0.03}}

        def hermite(k):
            return lambda rng: _hermite_spec(k, 40 * k + int(rng.integers(0, 60)))

        def graph(n):
            return lambda rng: {"kind": "graph", "sigma": _graph_sigma(n, rng)}

        # repeats put the median and p90 inside groups of equal-cost jobs
        # (d256 and d512 pl_square), as in the sweep
        return [
            ("d128", dirichlet(128), {"pl_square": 2, "besov_discrete": 1}),
            ("hermite16", hermite(16), {"pl_square": 2, "continuous_square": 1}),
            ("graph32", graph(32), {"kernel_plus_pl": 2, "pl_random": 1}),
            ("d256", dirichlet(256), {"pl_square": 3, "continuous_square": 1, "pl_random": 1}),
            ("schrodinger128", schrodinger(128), {"pl_square": 2, "pl_inhomogeneous": 1}),
            ("hermite32", hermite(32), {"strip_pl_square": 1, "pl_square": 1}),
            ("graph64", graph(64), {"kernel_plus_pl": 1}),
            ("schrodinger256", schrodinger(256), {"besov_discrete": 1}),
            ("nonnormal64", lambda rng: _real_nonnormal_spec(64, int(rng.integers(2**31))),
             {"pl_square": 1, "besov_discrete": 1}),
            ("d512", dirichlet(512), {"pl_square": 3, "strip_pl_square": 1}),
            ("d1024", dirichlet(1024), {"pl_square": 1}),
        ]

    def jobs(self, rng, workdir):
        out = []
        for op_name, make_spec, kinds in self._ops():
            for kind, count in kinds.items():
                for i in range(count):
                    spec = make_spec(rng)
                    norm = dict(_SWEEP_NORMS[kind][0])
                    if kind == "pl_random":
                        norm["count"] = 64
                    config = {"operator": spec, "norm": norm, "vector": {"kind": "random"}}
                    seed = int(rng.integers(2**31))
                    out.append(_cli_job(f"{op_name}-{kind}-{i}", f"norm_eval:{kind}",
                                        ["norm", "eval", "--seed", str(seed)], config, workdir,
                                        _oneshot_check(kind, spec["kind"])))
        return out


# -- interp_kfunc ---------------------------------------------------------------------

_KCURVE_T = np.logspace(-3.0, 5.0, 40)
# Two interpolation norms per pass keep them beyond p90 (7% of the jobs),
# so p90 falls inside the n = 256 K-curves and the median inside n = 128.
_RIN_SIZES = (64, 256)
_KCURVES = {32: 6, 64: 6, 128: 7, 256: 7}


def _unit_vector(op, rng):
    from plcalc.measure import lp_norm

    x = op.random_vector(rng)
    return x / lp_norm(x, 2, op.measure)


def _diagonal(op, x):
    lam = np.real(op.eigenvalues_or_none())
    a = np.abs(op.coefficients(x))
    nz = lam > 1e-12 * op.lambda_max
    return lam[nz], a[nz]


class InterpKfunc:
    sizes = (32, 64, 128, 256)

    def __init__(self):
        from plcalc import operators

        self.ops = {n: operators.build_dirichlet_laplacian_1d(n, 1.0) for n in self.sizes}

    def _rin_job(self, n, x):
        from plcalc import norms

        op = self.ops[n]

        def check(v):
            # K(t) <= min(||x||_0, t ||x||_1); at vartheta = 1/2, q = 2 the
            # envelope integrates to 2 ||x||_0 ||x||_1
            lam, a = _diagonal(op, x)
            n0, n1 = np.sqrt(np.sum(a**2)), np.sqrt(np.sum((lam * a) ** 2))
            env = np.sqrt(2.0 * n0 * n1)
            require(np.isfinite(v) and 0 < v <= env * (1 + KCURVE_TOL),
                    f"interpolation norm {v} outside (0, {env}]")
            return [float(v)]

        return Job(f"rin-d{n}", "rin",
                   lambda: norms.real_interpolation_norm(op, x, 0.5, 2, 0.0, 1.0), check)

    def _kcurve_job(self, n, i, x):
        from plcalc import norms

        op = self.ops[n]

        def run():
            return np.array([norms.k_functional(op, x, t, 0.0, 1.0) for t in _KCURVE_T])

        def check(ks):
            t = _KCURVE_T
            lam, a = _diagonal(op, x)
            n0, n1 = np.sqrt(np.sum(a**2)), np.sqrt(np.sum((lam * a) ** 2))
            scale = float(np.max(ks))
            require(np.all(np.diff(ks) >= -KCURVE_TOL * ks[:-1]), "K-curve not monotone")
            require(np.all(np.diff(np.diff(ks) / np.diff(t)) <= KCURVE_TOL * scale),
                    "K-curve not concave")
            require(np.all(ks <= np.minimum(n0, t * n1) * (1 + KCURVE_TOL)),
                    "K-curve above min(||x||_0, t ||x||_1)")
            # at p = 2, K(t) >= (sum_k a_k^2 t^2 lam_k^2 / (1 + t^2 lam_k^2))^(1/2)
            low = np.sqrt([np.sum(a**2 * (s * lam) ** 2 / (1 + (s * lam) ** 2)) for s in t])
            require(np.all(ks >= low * (1 - KCURVE_TOL)), "K-curve below its lower bound")
            return [float(ks[0]), float(ks[len(ks) // 2]), float(ks[-1]), float(np.sum(ks))]

        return Job(f"kcurve-d{n}-{i}", "kcurve", run, check)

    def jobs(self, rng, workdir):
        out = []
        for n in self.sizes:
            if n in _RIN_SIZES:
                out.append(self._rin_job(n, _unit_vector(self.ops[n], rng)))
            out += [self._kcurve_job(n, i, _unit_vector(self.ops[n], rng))
                    for i in range(_KCURVES[n])]
        return out


# -- calculus_symbols -----------------------------------------------------------------

_CONTOUR_TAIL_TOL = 1e-9
_MBC_TRIALS = 2


class CalculusSymbols:
    def __init__(self):
        from plcalc import operators, symbols

        n = 128
        xg = (np.arange(1, n + 1) - (n + 1) / 2) * (4.0 / (n + 1))
        rng = np.random.default_rng(7)
        lams = np.geomspace(0.05, 4.0, 48) * np.exp(1j * rng.uniform(-0.3, 0.3, 48))
        self.contour_ops = {
            "nonnormal48": operators.build_nonnormal_sectorial(lams, 5.0, 7),
            "schrodinger128": operators.build_schrodinger_1d(n, 1.0, xg**2),
        }
        self.symbols = {"rho": symbols.make_symbol("rho"),
                        "psi_exp": symbols.make_symbol("psi_exp", a=2.0, b=1.0)}
        self.mbc_ops = {m: operators.build_dirichlet_laplacian_1d(m, 1.0) for m in (64, 128)}

    def _contour_job(self, label, op, sym, x):
        from plcalc import calculus

        def check(result):
            y, tail = result
            require(tail <= _CONTOUR_TAIL_TOL, f"contour tail {tail:.2e} above tolerance")
            exact = calculus.apply_spectral(op, sym, x)
            err = float(np.linalg.norm(y - exact) / np.linalg.norm(exact))
            require(err <= CONTOUR_RTOL, f"contour vs spectral relative error {err:.2e}")
            return [float(np.linalg.norm(y)), float(y[0].real), float(y[0].imag)]

        return Job(label, f"contour:{sym.name}",
                   lambda: calculus.apply_contour(op, sym, x, tail_tol=_CONTOUR_TAIL_TOL), check)

    def _mbc_job(self, m, i, seed):
        from plcalc import experiments

        op = self.mbc_ops[m]

        def check(out):
            for row in out["rows"]:
                # |f| <= 1 on the spectrum, and the smoothness norm includes sup |f|
                require(0 < row["opnorm"] <= 1.0 + 1e-12, f"opnorm {row['opnorm']} not in (0, 1]")
                require(np.isfinite(row["mihlin"]) and 0 < row["ratio"] <= 1.0,
                        f"ratio {row['ratio']} not in (0, 1]")
            return [out["max_ratio"], out["median_ratio"]]

        return Job(f"mbc-d{m}-{i}", "mbc",
                   lambda: experiments.multiplier_bound_check(op, 1.5, _MBC_TRIALS, seed), check)

    def jobs(self, rng, workdir):
        out = []
        # repeats put the median inside the nonnormal rho contours, whose
        # cost varies least, and p90 inside the trial sets
        reps = {("nonnormal48", "rho"): 8, ("nonnormal48", "psi_exp"): 4,
                ("schrodinger128", "rho"): 2, ("schrodinger128", "psi_exp"): 2}
        for op_name, op in self.contour_ops.items():
            for sym_name, sym in self.symbols.items():
                for i in range(reps[op_name, sym_name]):
                    out.append(self._contour_job(f"contour-{op_name}-{sym_name}-{i}", op, sym,
                                                 _unit_vector(op, rng)))
        out += [self._mbc_job(m, i, int(rng.integers(2**31)))
                for m in self.mbc_ops for i in range(2)]
        return out


WORKLOADS = {
    "equivalence_sweep": EquivalenceSweep,
    "oneshot_eval": OneshotEval,
    "interp_kfunc": InterpKfunc,
    "calculus_symbols": CalculusSymbols,
}
