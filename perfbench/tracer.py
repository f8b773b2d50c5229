"""Span tracing of plcalc's public functions, installed from outside the package.

The package imports by name (``from .calculus import spectral_multiplier``),
so wrapping a function only in the module that defines it misses most of
its calls.  ``Tracer.install`` therefore replaces the function at every
binding that holds the same object: the defining module, every other
``plcalc`` module, and the class for methods.  ``uninstall`` puts every
original back.

Each wrapped call records one span ``(name, start, end, parent, job)``.
Spans stay in memory until the run ends.  A call whose nearest traced
caller has the same name is folded into that caller, so
``operator_from_spec`` -> ``build_dirichlet_laplacian_1d`` is one
``operators.build`` call, not two.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def traced_targets():
    """(span name, owner, attribute) for every function the trace covers."""
    import scipy.optimize

    from plcalc import (
        calculus,
        cli,
        experiments,
        measure,
        norms,
        operators,
        partitions,
        symbols,
    )

    builders = ["operator_from_spec", "build_dirichlet_laplacian_1d",
                "build_graph_laplacian", "build_hermite_operator",
                "build_schrodinger_1d", "build_nonnormal_sectorial"]
    norm_fns = ["pl_square_norm", "pl_inhomogeneous_norm", "besov_discrete_norm",
                "besov_continuous_norm", "spectral_blocks", "pl_random_norm",
                "continuous_square_norm", "k_functional", "real_interpolation_norm"]
    targets = [("operators.build", operators, b) for b in builders]
    targets += [
        ("operators.coefficients", operators.ModelOperator, "coefficients"),
        ("operators.synthesize", operators.ModelOperator, "synthesize"),
        ("operators.resolvent_apply", operators, "resolvent_apply"),
        ("measure.weighted_symmetric_eig", measure, "weighted_symmetric_eig"),
        ("measure.lp_norm", measure, "lp_norm"),
        ("partitions.window", partitions.PartitionOfUnity, "window"),
        ("partitions.bump", partitions.SmoothBump, "__call__"),
        ("symbols.besov_norm_inf_1", symbols, "besov_norm_inf_1"),
        ("symbols.iterated_difference", symbols, "iterated_difference"),
        ("calculus.spectral_multiplier", calculus, "spectral_multiplier"),
        ("calculus.apply_contour", calculus, "apply_contour"),
        ("experiments.run_equivalence", experiments, "run_equivalence"),
        ("experiments.multiplier_bound_check", experiments, "multiplier_bound_check"),
        ("cli.main", cli, "main"),
        # norms calls it as scipy.optimize.minimize_scalar
        ("norms.minimize_scalar", scipy.optimize, "minimize_scalar"),
    ]
    targets += [(f"norms.{f}", norms, f) for f in norm_fns]
    return targets


# Outermost calls of these count as one norm evaluation each.
NORM_EVAL_SPANS = frozenset(
    f"norms.{f}" for f in ("pl_square_norm", "pl_inhomogeneous_norm", "besov_discrete_norm",
                           "besov_continuous_norm", "pl_random_norm",
                           "continuous_square_norm", "k_functional",
                           "real_interpolation_norm"))

# Span names reported as per-layer metrics (``<name>.calls``, ``<name>.self_s``).
REPORTED_SPANS = (
    "operators.build", "operators.coefficients", "operators.synthesize",
    "operators.resolvent_apply", "measure.weighted_symmetric_eig", "measure.lp_norm",
    "partitions.window", "partitions.bump", "symbols.besov_norm_inf_1",
    "symbols.iterated_difference", "calculus.spectral_multiplier",
    "calculus.apply_contour", "norms.spectral_blocks", "norms.pl_random_norm",
    "norms.continuous_square_norm", "norms.k_functional", "norms.minimize_scalar",
    "norms.real_interpolation_norm", "experiments.run_equivalence",
    "experiments.multiplier_bound_check", "cli.main",
)


class Tracer:
    """Wraps the traced functions and keeps their spans in memory."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, job)
        self.job = -1
        self._stack = []         # (span index, name) of the open spans
        self._restore = []       # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)

        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "plcalc" or key.startswith("plcalc."))]
        for name, owner, attr in traced_targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original)
            bindings = [(owner, attr)]
            for module in modules:
                bindings += [(module, key) for key, value in vars(module).items()
                             if value is original and (module, key) != (owner, attr)]
            for holder, key in bindings:
                self._restore.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def span_totals(spans, lo=0, hi=None):
    """Per span name: (calls, self seconds), and outermost norm evaluations,
    over spans[lo:hi].  The range must hold whole call trees.

    Self time is a span's duration minus the durations of its direct
    children (calls are sequential, so children never overlap).
    """
    hi = len(spans) if hi is None else hi
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    norm_evals = 0
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        if name in NORM_EVAL_SPANS:
            p = parent
            while p >= 0 and spans[p][0] not in NORM_EVAL_SPANS:
                p = spans[p][3]
            norm_evals += p < 0
    return calls, self_s, norm_evals
