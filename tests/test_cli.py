"""CLI surface: exit codes, JSON outputs, determinism."""

import json

import numpy as np
import pytest

from plcalc.cli import build_parser, main
from plcalc.operators import operator_from_spec

SQRT_HALF = 2.0**-0.5


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_op_build_dirichlet_summary(tmp_path, capsys):
    cfg = write(tmp_path, "op.json", {"kind": "dirichlet1d", "n": 2, "h": 1.0})
    rc = main(["op", "build", "--config", cfg])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda_min_positive"] == pytest.approx(1.0)
    assert out["lambda_max"] == pytest.approx(3.0)
    assert out["injective"] is True
    assert out["kernel_dim"] == 0


def test_op_build_graph_kernel_dim(tmp_path, capsys):
    cfg = write(tmp_path, "op.json", {"kind": "graph",
                                      "sigma": [[1.0, 1.0], [1.0, 1.0]]})
    rc = main(["op", "build", "--config", cfg])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kernel_dim"] == 1
    assert out["injective"] is False


def test_op_build_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["op", "build", "--config", str(bad)]) == 2
    missing = write(tmp_path, "m.json", {"kind": "dirichlet1d"})   # no n
    assert main(["op", "build", "--config", missing]) == 2


def test_op_build_invariant_violation_exits_3(tmp_path):
    cfg = write(tmp_path, "disc.json", {"kind": "graph",
                                        "sigma": [[1.0, 0.0], [0.0, 1.0]]})
    assert main(["op", "build", "--config", cfg]) == 3


def test_norm_eval_eigenvector_window_value(tmp_path, capsys):
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "dirichlet1d", "n": 2, "h": 1.0},
        "norm": {"kind": "pl_square", "pnorm": 2},
        "vector": {"kind": "eigenvector", "index": 0},
    })
    rc = main(["norm", "eval", "--config", cfg])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    # eigenvalue 1 sits on the window-0 plateau; the block norm is ||x|| = 1
    assert out["norm"] == pytest.approx(1.0, rel=1e-10)
    assert out["provenance"]["vector"]["kind"] == "eigenvector"


def test_norm_eval_eigenvector_of_a_nonnormal_operator(tmp_path, capsys):
    # column 1 of S: eigenvalue 2 sits on the window-1 plateau, so the
    # block norm equals the ambient norm of the eigenvector
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "nonnormal", "lambdas": [[1.0, 0.0], [2.0, 0.0]],
                     "conditioning": 4.0, "seed": 1},
        "norm": {"kind": "pl_square", "pnorm": 2},
        "vector": {"kind": "eigenvector", "index": 1},
    })
    assert main(["norm", "eval", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    s = operator_from_spec({"kind": "nonnormal", "lambdas": [[1.0, 0.0], [2.0, 0.0]],
                            "conditioning": 4.0, "seed": 1}).form.s
    assert out["norm"] == pytest.approx(np.linalg.norm(s[:, 1]), rel=1e-10)


def test_norm_eval_zero_vector(tmp_path, capsys):
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "dirichlet1d", "n": 4, "h": 1.0},
        "norm": {"kind": "pl_square", "pnorm": 2},
        "vector": {"kind": "zero"},
    })
    assert main(["norm", "eval", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["norm"] == 0.0


def test_norm_eval_theta_zero_matches_unweighted(tmp_path, capsys):
    op_spec = {"kind": "dirichlet1d", "n": 16, "h": 1.0}
    vals = []
    for theta in (0.0, None):
        norm_spec = {"kind": "pl_square", "pnorm": 2}
        if theta is not None:
            norm_spec["theta"] = theta
        cfg = write(tmp_path, f"norm{theta}.json", {
            "operator": op_spec, "norm": norm_spec,
            "vector": {"kind": "random", "seed": 4},
        })
        assert main(["norm", "eval", "--config", cfg]) == 0
        vals.append(json.loads(capsys.readouterr().out)["norm"])
    assert vals[0] == vals[1]


def test_norm_eval_requires_seed_for_random(tmp_path):
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "dirichlet1d", "n": 4, "h": 1.0},
        "norm": {"kind": "pl_square", "pnorm": 2},
        "vector": {"kind": "random"},
    })
    assert main(["norm", "eval", "--config", cfg]) == 2


def test_norm_eval_error_exits_4(tmp_path):
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "dirichlet1d", "n": 4, "h": 1.0},
        "norm": {"kind": "continuous_square", "pnorm": 2,
                 "psi": {"kind": "exp"}},
        "vector": {"kind": "zero"},
    })
    assert main(["norm", "eval", "--config", cfg]) == 4


def test_norm_eval_unknown_operator_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "dirichlet1d", "n": 32, "hh": 0.5},
        "norm": {"kind": "pl_square", "pnorm": 2},
        "vector": {"kind": "zero"},
    })
    assert main(["norm", "eval", "--config", cfg]) == 2
    assert "'hh'" in capsys.readouterr().err


def test_norm_eval_unknown_norm_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "dirichlet1d", "n": 32, "h": 0.5},
        "norm": {"kind": "pl_square", "thetta": 1.0},
        "vector": {"kind": "zero"},
    })
    assert main(["norm", "eval", "--config", cfg]) == 2
    assert "'thetta'" in capsys.readouterr().err


def experiment_config(bracket):
    return {
        "name": "cli-overlap",
        "operator": {"kind": "dirichlet1d", "n": 32, "h": 1.0},
        "norm_a": {"kind": "pl_square", "pnorm": 2},
        "norm_b": {"kind": "ambient", "pnorm": 2},
        "samples": 10,
        "assert_bracket": bracket,
    }


def test_experiment_run_pass_and_sidecar(tmp_path):
    cfg = write(tmp_path, "exp.json", experiment_config([SQRT_HALF - 1e-9, 1 + 1e-9]))
    out = tmp_path / "report.json"
    rc = main(["experiment", "run", "--config", cfg, "--out", str(out),
               "--seed", "21", "--quiet"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    csv = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert csv[0] == "sample_id,norm_a,norm_b,ratio"
    assert len(csv) == 11


def test_experiment_run_bracket_failure_exits_5_but_writes(tmp_path):
    cfg = write(tmp_path, "exp.json", experiment_config([2.0, 3.0]))
    out = tmp_path / "report.json"
    rc = main(["experiment", "run", "--config", cfg, "--out", str(out),
               "--seed", "21", "--quiet"])
    assert rc == 5
    assert json.loads(out.read_text())["passed"] is False


def test_experiment_run_requires_seed(tmp_path):
    cfg = write(tmp_path, "exp.json", experiment_config(None))
    assert main(["experiment", "run", "--config", cfg,
                 "--out", str(tmp_path / "r.json")]) == 2


def test_experiment_run_byte_identical_reports(tmp_path):
    cfg = write(tmp_path, "exp.json", experiment_config([SQRT_HALF - 1e-9, 1 + 1e-9]))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["experiment", "run", "--config", cfg, "--out", str(out),
                     "--seed", "33", "--quiet"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_experiment_run_unknown_operator_key_exits_2(tmp_path, capsys):
    config = experiment_config(None)
    config["operator"] = {"kind": "dirichlet1d", "n": 32, "hh": 0.5}
    cfg = write(tmp_path, "exp.json", config)
    assert main(["experiment", "run", "--config", cfg, "--out", str(tmp_path / "r.json"),
                 "--seed", "5", "--quiet"]) == 2
    assert "'hh'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_experiment_run_unknown_norm_key_exits_2(tmp_path, capsys):
    config = experiment_config(None)
    config["norm_b"] = {"kind": "ambient", "pnorm": 2, "thetta": 1.0}
    cfg = write(tmp_path, "exp.json", config)
    assert main(["experiment", "run", "--config", cfg, "--out", str(tmp_path / "r.json"),
                 "--seed", "5", "--quiet"]) == 2
    assert "'thetta'" in capsys.readouterr().err


def norm_eval_config(**changes):
    config = {"operator": {"kind": "dirichlet1d", "n": 8, "h": 1.0},
              "norm": {"kind": "pl_square", "pnorm": 2},
              "vector": {"kind": "zero"}}
    return {**config, **changes}


def run_cli(tmp_path, command, config):
    cfg = write(tmp_path, "config.json", config)
    if command == "norm":
        return main(["norm", "eval", "--config", cfg, "--out", str(tmp_path / "r.json"),
                     "--quiet"])
    return main(["experiment", "run", "--config", cfg, "--out", str(tmp_path / "r.json"),
                 "--seed", "5", "--quiet"])


@pytest.mark.parametrize("command, config, key", [
    ("norm", norm_eval_config(norm={"kind": "continuous_square",
                                    "psi": {"kind": "psi_exp", "a": 1.0, "b": 1.0, "bb": 3}}),
     "'bb'"),
    ("experiment", {**experiment_config(None),
                    "norm_a": {"kind": "besov_continuous", "theta": 0.5,
                               "f": {"kind": "res_frac", "a": 1.0, "b": 2.0, "aa": 1}}},
     "'aa'"),
    ("experiment", {**experiment_config(None), "sampels": 3}, "'sampels'"),
    ("norm", norm_eval_config(seeed=3), "'seeed'"),
    ("norm", norm_eval_config(vector={"kind": "random", "seed": 1, "normalise": False}),
     "'normalise'"),
    ("norm", norm_eval_config(vector={"kind": "eigenvector"}), "'index'"),
    ("norm", norm_eval_config(vector={"kind": "eigenvector", "index": 99}), "'index'"),
    ("norm", norm_eval_config(vector={"kind": "file"}), "'path'"),
], ids=["psi-key", "f-key", "experiment-top-level", "norm-eval-top-level", "vector-key",
        "eigenvector-without-index", "eigenvector-index-out-of-range", "file-without-path"])
def test_unknown_or_missing_config_key_exits_2(tmp_path, capsys, command, config, key):
    assert run_cli(tmp_path, command, config) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, config, reason", [
    # 2^(2000 n) overflows, so the block norm is NaN
    ("norm", norm_eval_config(norm={"kind": "pl_square", "theta": 2000},
                              vector={"kind": "random", "seed": 1}), "non-finite"),
    ("experiment", {**experiment_config(None), "norm_a": {"kind": "pl_square", "theta": 2000}},
     "sample 0"),
    # every block index is >= 2, so 2^(-2000 n) underflows to a zero norm_b
    ("experiment", {**experiment_config(None),
                    "operator": {"kind": "nonnormal", "lambdas": [[8.0, 0.0], [16.0, 0.0]]},
                    "norm_b": {"kind": "pl_square", "theta": -2000}}, "sample 0"),
], ids=["norm-eval-nan", "experiment-nan-norm", "experiment-zero-denominator"])
def test_non_finite_result_exits_4_without_report(tmp_path, capsys, command, config, reason):
    assert run_cli(tmp_path, command, config) == 4
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_reports_refuse_non_finite_json(capsys):
    from plcalc.cli import _emit

    with pytest.raises(ValueError):
        _emit({"norm": float("nan")}, None, quiet=True)


def test_parser_is_built_once_and_options_do_not_carry(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = write(tmp_path, "norm.json", {
        "operator": {"kind": "dirichlet1d", "n": 4, "h": 1.0},
        "norm": {"kind": "pl_square", "pnorm": 2},
        "vector": {"kind": "random"},
    })
    out = str(tmp_path / "r.json")
    assert main(["norm", "eval", "--config", cfg, "--out", out, "--seed", "3", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["norm", "eval", "--config", cfg, "--out", out]) == 2   # no --seed
    zero = write(tmp_path, "zero.json", {
        "operator": {"kind": "dirichlet1d", "n": 4, "h": 1.0},
        "norm": {"kind": "pl_square", "pnorm": 2},
        "vector": {"kind": "zero"},
    })
    assert main(["norm", "eval", "--config", zero, "--out", out]) == 0   # no --quiet
    assert json.loads(capsys.readouterr().out)["norm"] == 0.0
