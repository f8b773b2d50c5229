"""Command-line entry point.

Subcommands:

  plcalc op build        --config op.json [--out out.json]
  plcalc norm eval       --config norm.json [--out out.json] [--seed N]
  plcalc experiment run  --config exp.json --out report.json [--seed N]
  plcalc suite acceptance [--out report.json]

Exit codes: 0 ok, 2 malformed config, 3 operator invariant violation,
4 norm evaluation error or non-finite result, 5 assert-bracket failure
(report still written), 6 acceptance suite failure.

Reports are byte-identical for identical (config, seed): they embed the
fully resolved configuration and never a timestamp.  The experiment
runner also writes a CSV sidecar (sample_id, norm_a, norm_b, ratio) next
to the JSON report.  A key that a spec's kind does not read is a malformed
config (exit 2), never silently dropped.  A report holds finite numbers
only: NaN or infinity never reaches the JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np


EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NORM_ERROR = 4
EXIT_BRACKET = 5
EXIT_ACCEPTANCE = 6


class CliExit(SystemExit):
    """SystemExit that also prints a one-line reason to stderr."""

    def __init__(self, code: int, message: str):
        print(f"plcalc: {message}", file=sys.stderr)
        super().__init__(code)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"cannot read config {path}: {exc}")


def _emit(payload: dict, out: str | None, quiet: bool):
    blob = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(blob + "\n")
    if not quiet or not out:
        print(blob)


def cmd_op_build(args) -> int:
    from .operators import GraphError, OperatorError, operator_from_spec

    spec = _load_json(args.config)
    try:
        op = operator_from_spec(spec)
    except (KeyError, TypeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed operator spec: {exc}")
    except GraphError as exc:
        raise CliExit(EXIT_INVARIANT, f"operator invariant violated: {exc}")
    except OperatorError as exc:
        raise CliExit(EXIT_INVARIANT, f"operator invariant violated: {exc}")
    summary = {
        "kind": spec.get("kind"),
        "n": op.n,
        "lambda_min_positive": op.lambda_min_positive,
        "lambda_max": op.lambda_max,
        "sector_angle_hint": op.sector_angle_hint,
        "injective": op.injective,
        "bisectorial": op.bisectorial,
        "kernel_dim": op.kernel_dim(),
    }
    _emit(summary, args.out, args.quiet)
    return EXIT_OK


# Keys each vector kind reads, besides "kind".
_VECTOR_KEYS = {"random": ("seed", "normalize"), "eigenvector": ("index",),
                "file": ("path",), "zero": ()}


def _resolve_vector(op, vec_spec: dict, seed, pnorm):
    """The vector of a norm-eval config and its echo.

    Raises KeyError (SpecKeyError for an unread key) on a malformed spec.
    """
    from .measure import lp_norm
    from .operators import check_spec_keys

    kind = vec_spec.get("kind", "random")
    if kind not in _VECTOR_KEYS:
        raise CliExit(EXIT_BAD_CONFIG, f"unknown vector kind {kind!r}")
    check_spec_keys(vec_spec, ("kind",) + _VECTOR_KEYS[kind], f"{kind} vector spec")
    if kind == "random":
        vseed = vec_spec.get("seed", seed)
        if vseed is None:
            raise CliExit(EXIT_BAD_CONFIG,
                                  "stochastic vector needs a seed (config or --seed)")
        x = op.random_vector(np.random.default_rng(int(vseed)))
        if vec_spec.get("normalize", True):
            x = x / lp_norm(x, pnorm, op.measure)
        return x, {"kind": "random", "seed": int(vseed)}
    if kind == "eigenvector":
        idx = int(vec_spec["index"])
        modes = op.eigenvalues_or_none().size
        if not 0 <= idx < modes:
            raise CliExit(EXIT_BAD_CONFIG,
                          f"eigenvector 'index' {idx} outside [0, {modes})")
        e_k = np.zeros(modes)
        e_k[idx] = 1.0
        return op.synthesize(e_k), {"kind": "eigenvector", "index": idx}
    if kind == "file":
        data = _load_json(vec_spec["path"])
        x = np.asarray([complex(re, im) for re, im in data], dtype=complex)
        return x, {"kind": "file", "path": vec_spec["path"]}
    return np.zeros(op.n, dtype=complex), {"kind": "zero"}


def cmd_norm_eval(args) -> int:
    from .experiments import _norm_evaluator
    from .operators import OperatorError, check_spec_keys, operator_from_spec

    config = _load_json(args.config)
    try:
        check_spec_keys(config, ("operator", "norm", "vector", "seed"), "norm eval config")
        op = operator_from_spec(config["operator"])
    except (KeyError, TypeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed config: {exc}")
    except OperatorError as exc:
        raise CliExit(EXIT_INVARIANT, str(exc))
    pnorm = config.get("norm", {}).get("pnorm", 2)
    seed = args.seed if args.seed is not None else config.get("seed")
    try:
        x, vec_echo = _resolve_vector(op, config.get("vector", {}), seed, pnorm)
    except KeyError as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed vector spec: {exc}")
    try:
        evaluator, echo = _norm_evaluator(op, config["norm"],
                                          int(seed) if seed is not None else 0)
    except (KeyError, TypeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed norm spec: {exc}")
    except Exception as exc:
        raise CliExit(EXIT_NORM_ERROR, f"norm evaluation failed: {exc}")
    try:
        value = float(evaluator(x))
    except Exception as exc:
        raise CliExit(EXIT_NORM_ERROR, f"norm evaluation failed: {exc}")
    if not np.isfinite(value):
        raise CliExit(EXIT_NORM_ERROR, f"norm evaluation gave a non-finite value {value!r}")
    payload = {
        "norm": value,
        "provenance": {"operator": op.spec, "norm": echo, "vector": vec_echo,
                       "seed": seed},
    }
    _emit(payload, args.out, args.quiet)
    return EXIT_OK


def cmd_experiment_run(args) -> int:
    from .experiments import ExperimentError, run_equivalence
    from .operators import OperatorError

    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if "seed" not in config or config["seed"] is None:
        raise CliExit(EXIT_BAD_CONFIG,
                              "experiment run is stochastic: a seed is required")
    try:
        report = run_equivalence(config)
    except (KeyError, TypeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed config: {exc}")
    except OperatorError as exc:
        raise CliExit(EXIT_INVARIANT, str(exc))
    except ExperimentError as exc:
        raise CliExit(EXIT_NORM_ERROR, str(exc))
    payload = report.to_json()
    out = args.out
    # format inferred from the extension: .csv gets the table as the main
    # artifact with the JSON report alongside, anything else the reverse
    json_path = Path(out).with_suffix(".json") if out else None
    _emit(payload, str(json_path) if json_path else None, args.quiet)
    if out:
        csv_path = Path(out) if out.endswith(".csv") else Path(out).with_suffix(".csv")
        lines = ["sample_id,norm_a,norm_b,ratio"]
        for row in report.table:
            lines.append(f"{row['sample_id']},{row['norm_a']!r},"
                         f"{row['norm_b']!r},{row['ratio']!r}")
        csv_path.write_text("\n".join(lines) + "\n")
    if not report.passed:
        print("plcalc: assert bracket failed (report written)", file=sys.stderr)
        return EXIT_BRACKET
    return EXIT_OK


def cmd_suite_acceptance(args) -> int:
    from .acceptance import run_all

    echo = (lambda line: None) if args.quiet else print
    results = run_all(echo=echo)
    payload = {
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")
    if not payload["all_passed"]:
        return EXIT_ACCEPTANCE
    return EXIT_OK


@functools.cache   # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcalc",
        description="dyadic spectral decompositions and norm-equivalence experiments")
    sub = parser.add_subparsers(dest="group", required=True)

    def common(p):
        p.add_argument("--config", required=False)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")

    op = sub.add_parser("op", help="operator tools").add_subparsers(
        dest="action", required=True)
    p = op.add_parser("build", help="build an operator and print its summary")
    common(p)
    p.set_defaults(fn=cmd_op_build)

    norm = sub.add_parser("norm", help="norm tools").add_subparsers(
        dest="action", required=True)
    p = norm.add_parser("eval", help="evaluate one norm of one vector")
    common(p)
    p.set_defaults(fn=cmd_norm_eval)

    exp = sub.add_parser("experiment", help="experiment tools").add_subparsers(
        dest="action", required=True)
    p = exp.add_parser("run", help="run an equivalence experiment")
    common(p)
    p.set_defaults(fn=cmd_experiment_run)

    suite = sub.add_parser("suite", help="batteries").add_subparsers(
        dest="action", required=True)
    p = suite.add_parser("acceptance", help="run the acceptance battery")
    common(p)
    p.set_defaults(fn=cmd_suite_acceptance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "fn", None) in (cmd_op_build, cmd_norm_eval, cmd_experiment_run):
        if not args.config:
            print("plcalc: --config is required", file=sys.stderr)
            return EXIT_BAD_CONFIG
    try:
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
