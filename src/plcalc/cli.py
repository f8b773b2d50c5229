"""Command-line entry point.

Subcommands:

  plcalc op build        --config op.json [--out out.json] [--quiet]
  plcalc norm eval       --config norm.json [--out out.json] [--seed N] [--quiet]
  plcalc experiment run  --config exp.json --out report.json [--seed N] [--quiet]
  plcalc suite acceptance [--out report.json] [--quiet]

A subcommand takes only the options it reads; any other, or a missing
--config, is a usage error (exit 2).

Exit codes: 0 ok, 2 malformed config, 3 operator invariant violation,
4 norm evaluation error or non-finite result, 5 assert-bracket failure
(report still written), 6 acceptance suite failure.

A report is one line of JSON with sorted keys.  Reports are byte-identical
for identical (config, seed): they embed the fully resolved configuration
and never a timestamp.  The experiment runner also writes a CSV sidecar
(sample_id, norm_a, norm_b, ratio) next to the JSON report.  A key that
a spec's kind does not read is a malformed config (exit 2), never silently
dropped.  A report holds finite numbers only: NaN or infinity never
reaches the JSON.
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


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not standard JSON")


# json accepts the non-standard tokens NaN, Infinity and -Infinity, and
# hands only those to parse_constant
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _load_json(path: str) -> dict:
    """The JSON value of a file; an unreadable file, malformed JSON or a
    non-standard token is exit 2."""
    try:
        with open(path) as fh:
            return _DECODER.decode(fh.read())
    except (OSError, ValueError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"cannot read config {path}: {exc}")


def _load_config(path: str, where: str) -> dict:
    """The JSON object of a config file; any other JSON value is a
    malformed config (exit 2)."""
    config = _load_json(path)
    if not isinstance(config, dict):
        raise CliExit(EXIT_BAD_CONFIG, f"malformed config: {where} must be a JSON object, "
                                       f"got {config!r}")
    return config


def _encode(payload: dict) -> str:
    """A report as one JSON line: keys sorted, NaN and infinity refused.

    Without an indent json runs its C encoder, several times faster than
    the pure-Python one an indent needs on a report that echoes a large
    operator spec.
    """
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _emit(payload: dict, out: str | None, quiet: bool):
    blob = _encode(payload)
    if out:
        Path(out).write_text(blob)
    if not quiet or not out:
        sys.stdout.write(blob)


def cmd_op_build(args) -> int:
    from .operators import OperatorError, operator_from_spec

    spec = _load_json(args.config)
    try:
        op = operator_from_spec(spec)
    except (KeyError, TypeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed operator spec: {exc}")
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

    Raises KeyError (SpecKeyError for an unread key, SpecValueError for a
    spec that is not an object or a value that is not an integer) on a
    malformed spec.
    """
    from .measure import lp_norm
    from .operators import check_spec_keys, integer, non_negative, spec_kind, spec_value

    if isinstance(vec_spec, dict):
        vec_spec = {"kind": "random", **vec_spec}
    kind = spec_kind(vec_spec, "vector")
    if not isinstance(kind, str) or kind not in _VECTOR_KEYS:
        raise CliExit(EXIT_BAD_CONFIG, f"unknown vector kind {kind!r}")
    where = f"{kind} vector spec"
    check_spec_keys(vec_spec, ("kind",) + _VECTOR_KEYS[kind], where)
    if kind == "random":
        vseed = vec_spec.get("seed", seed)
        if vseed is None:
            raise CliExit(EXIT_BAD_CONFIG,
                                  "stochastic vector needs a seed (config or --seed)")
        vseed = spec_value(vseed, non_negative, "seed", where)
        x = op.random_vector(np.random.default_rng(vseed))
        if spec_value(vec_spec.get("normalize", True), _boolean, "normalize", where):
            x = x / lp_norm(x, pnorm, op.measure)
        return x, {"kind": "random", "seed": vseed}
    if kind == "eigenvector":
        idx = spec_value(vec_spec["index"], integer, "index", where)
        modes = op.eigenvalues_or_none().size
        if not 0 <= idx < modes:
            raise CliExit(EXIT_BAD_CONFIG,
                          f"eigenvector 'index' {idx} outside [0, {modes})")
        e_k = np.zeros(modes)
        e_k[idx] = 1.0
        return op.synthesize(e_k), {"kind": "eigenvector", "index": idx}
    if kind == "file":
        path = vec_spec["path"]
        data = _load_json(path)
        try:
            x = np.asarray([complex(re, im) for re, im in data], dtype=complex)
        except (TypeError, ValueError):
            x = None
        if x is None or x.shape != (op.n,):
            raise CliExit(EXIT_BAD_CONFIG,
                          f"vector 'path' {path} must hold {op.n} [re, im] pairs")
        return x, {"kind": "file", "path": path}
    return np.zeros(op.n, dtype=complex), {"kind": "zero"}


def _boolean(value) -> bool:
    """A spec value that is a JSON boolean: "false" is a string, not false."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def cmd_norm_eval(args) -> int:
    from .norms import evaluator_from_spec
    from .operators import (OperatorError, check_spec_keys, non_negative, operator_from_spec,
                            spec_value)

    config = _load_config(args.config, "norm eval config")
    seed = args.seed if args.seed is not None else config.get("seed")
    try:
        check_spec_keys(config, ("operator", "norm", "vector", "seed"), "norm eval config")
        norm_seed = 0 if seed is None else spec_value(seed, non_negative, "seed",
                                                      "norm eval config")
        op = operator_from_spec(config["operator"])
    except (KeyError, TypeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed config: {exc}")
    except OperatorError as exc:
        raise CliExit(EXIT_INVARIANT, str(exc))
    # the norm spec is read first: its pnorm also normalizes a random vector
    try:
        evaluator, echo = evaluator_from_spec(op, config["norm"], norm_seed)
    except (KeyError, TypeError) as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed norm spec: {exc}")
    except Exception as exc:
        raise CliExit(EXIT_NORM_ERROR, f"norm evaluation failed: {exc}")
    try:
        x, vec_echo = _resolve_vector(op, config.get("vector", {}), seed, echo["pnorm"])
    except KeyError as exc:
        raise CliExit(EXIT_BAD_CONFIG, f"malformed vector spec: {exc}")
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

    config = _load_config(args.config, "experiment config")
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
        Path(args.out).write_text(_encode(payload))
    if not payload["all_passed"]:
        return EXIT_ACCEPTANCE
    return EXIT_OK


@functools.cache   # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcalc",
        description="dyadic spectral decompositions and norm-equivalence experiments")
    sub = parser.add_subparsers(dest="group", required=True)

    def command(group, action, help_text, fn, options):
        """One subcommand with --out, --quiet and the options it reads."""
        p = group.add_parser(action, help=help_text)
        if "config" in options:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if "seed" in options:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=fn)

    op = sub.add_parser("op", help="operator tools").add_subparsers(
        dest="action", required=True)
    command(op, "build", "build an operator and print its summary", cmd_op_build, ("config",))

    norm = sub.add_parser("norm", help="norm tools").add_subparsers(
        dest="action", required=True)
    command(norm, "eval", "evaluate one norm of one vector", cmd_norm_eval, ("config", "seed"))

    exp = sub.add_parser("experiment", help="experiment tools").add_subparsers(
        dest="action", required=True)
    command(exp, "run", "run an equivalence experiment", cmd_experiment_run, ("config", "seed"))

    suite = sub.add_parser("suite", help="batteries").add_subparsers(
        dest="action", required=True)
    command(suite, "acceptance", "run the acceptance battery", cmd_suite_acceptance, ())

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
