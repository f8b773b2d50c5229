"""CLI surface: exit codes, JSON outputs, determinism."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import plcalc
from plcalc.cli import build_parser, main
from plcalc.operators import OperatorError, build_nonnormal_sectorial, operator_from_spec

SQRT_HALF = 2.0**-0.5
# json.dumps writes a float beyond the float range as Infinity, a token the
# decoder refuses; these stand for the standard JSON numbers 1e999 and
# -1e999, which decode to +-inf, and write() puts them in as raw text
BIG, NEG_BIG = "<1e999>", "<-1e999>"


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(re.sub(r'"<(-?1e999)>"', r"\1", json.dumps(payload)))
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


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy serves only the LU oracle and is imported there, so it adds
    # nothing to the start-up of a run
    src = os.path.dirname(os.path.dirname(plcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, plcalc, plcalc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_python_m_plcalc_runs_the_cli(tmp_path):
    # the package runs as a module from a source checkout, exit code included
    src = os.path.dirname(os.path.dirname(plcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(cfg):
        return subprocess.run([sys.executable, "-m", "plcalc", "op", "build", "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run(write(tmp_path, "op.json", {"kind": "dirichlet1d", "n": 2, "h": 1.0}))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["lambda_max"] == pytest.approx(3.0)
    assert run(write(tmp_path, "m.json", {"kind": "dirichlet1d"})).returncode == 2


def test_op_build_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["op", "build", "--config", str(bad)]) == 2
    missing = write(tmp_path, "m.json", {"kind": "dirichlet1d"})   # no n
    assert main(["op", "build", "--config", missing]) == 2


def test_op_build_invariant_violation_exits_3(tmp_path, capsys):
    # a spec that reads but builds no valid operator exits 3 in every
    # subcommand, with the builder's or the substrate's reason
    invalid = [
        ({"kind": "graph", "sigma": [[1.0, 0.0], [0.0, 1.0]]}, "disconnected"),
        # 1/h^2 overflows, and the eigensolver refuses the non-finite matrix
        ({"kind": "schrodinger", "n": 8, "h": 1e-200}, "non-finite matrix entries"),
        # the same h gives the Dirichlet operator an infinite spectrum
        ({"kind": "dirichlet1d", "n": 8, "h": 1e-200}, "operator spectrum is not finite"),
        # h**2 leaves the float range: Python's OverflowError, not inf
        ({"kind": "schrodinger", "n": 8, "h": 1e200}, "overflows the float range"),
        ({"kind": "dirichlet1d", "n": 8, "h": 1e200}, "overflows the float range"),
        # a reversed grid has negative cell weights, which the measure refuses
        ({"kind": "hermite", "d": 1, "K": 4, "grid": {"lo": 5, "hi": -5}},
         "all weights must be strictly positive"),
    ]
    for spec, reason in invalid:
        codes = [main(["op", "build", "--config", write(tmp_path, "op.json", spec)]),
                 run_cli(tmp_path, "norm", norm_eval_config(operator=spec)),
                 run_cli(tmp_path, "experiment", {**experiment_config(None), "operator": spec})]
        assert codes == [3, 3, 3], reason
        err = capsys.readouterr().err
        assert err.count(reason) == 3 and "Traceback" not in err and "Warning" not in err


def test_one_eigenvalue_with_a_conditioning_above_one_is_refused(tmp_path, capsys):
    # a 1 x 1 S has cond(S) = 1: the build returned it and the report echoed
    # the conditioning asked for; conditioning 1 still builds
    reason = "one eigenvalue admits only conditioning 1 (a 1 x 1 S has cond(S) = 1), got 10.0"
    with pytest.raises(OperatorError, match=re.escape(reason)):
        build_nonnormal_sectorial([2.0], 10.0, seed=0)
    spec = {"kind": "nonnormal", "lambdas": [[2.0, 0.0]], "conditioning": 10}
    codes = [main(["op", "build", "--config", write(tmp_path, "op.json", spec)]),
             run_cli(tmp_path, "norm", norm_eval_config(operator=spec))]
    assert codes == [3, 3]
    assert capsys.readouterr().err.count(reason) == 2
    spec["conditioning"] = 1
    assert main(["op", "build", "--config", write(tmp_path, "op.json", spec)]) == 0
    # and a single eigenvalue on the imaginary axis still meets the sector check
    with pytest.raises(OperatorError, match=re.escape("strictly inside the (double) sector")):
        build_nonnormal_sectorial([1j], 1.0, seed=0)


def test_op_build_names_the_conditioning_an_inverse_cannot_support(tmp_path, capsys):
    # a float64 inverse of an 8 x 8 S with cond(S) = 1e12 misses I by far more
    # than the similarity tolerance; the refusal says how ill-conditioned S is
    spec = {"kind": "nonnormal", "lambdas": [[float(k), 0.0] for k in range(1, 9)],
            "conditioning": 1e12, "seed": 0}
    assert main(["op", "build", "--config", write(tmp_path, "op.json", spec)]) == 3
    err = capsys.readouterr().err
    assert ("similarity inverse fails ||S S^-1 - I|| tolerance: "
            "cond(S) = ||S||_2 ||S^-1||_2 = 1e+12") in err


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
    seed = [] if "seed" in config else ["--seed", "5"]   # --seed would replace the config's
    return main(["experiment", "run", "--config", cfg, "--out", str(tmp_path / "r.json"),
                 "--quiet"] + seed)


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
    ("norm", norm_eval_config(vector={"kind": "file", "path": 0}), "'path' in file vector spec"),
    ("norm", norm_eval_config(vector={"kind": "file", "path": "numbers.json"}), "'path'"),
    ("norm", norm_eval_config(vector={"kind": "file", "path": "short.json"}), "'path'"),
    ("norm", norm_eval_config(vector={"kind": "file", "path": "nan.json"}),
     "nan.json: NaN is not standard JSON"),
], ids=["psi-key", "f-key", "experiment-top-level", "norm-eval-top-level", "vector-key",
        "eigenvector-without-index", "eigenvector-index-out-of-range", "file-without-path",
        "file-path-not-a-string", "file-of-plain-numbers", "file-of-wrong-length", "file-holding-nan"])
def test_unknown_or_missing_config_key_exits_2(tmp_path, monkeypatch, capsys, command, config,
                                               key):
    # vector files, relative to the working directory: plain numbers
    # instead of [re, im] pairs, and 3 pairs for an operator of size 8
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "numbers.json", [1, 2, 3])
    write(tmp_path, "short.json", [[1.0, 0.0]] * 3)
    write(tmp_path, "nan.json", [[float("nan"), 0.0]] * 8)
    assert run_cli(tmp_path, command, config) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, config, reason", [
    # 2^(2000 n) overflows, so the block norm is NaN
    ("norm", norm_eval_config(norm={"kind": "pl_square", "theta": 2000},
                              vector={"kind": "random", "seed": 1}), "non-finite"),
    # at theta = 2000 the block weights overflow, so the stack is refused at set-up
    ("experiment", {**experiment_config(None), "norm_a": {"kind": "pl_square", "theta": 2000}},
     "norm not admitted: non-finite block weights"),
    # every block index is >= 2, so 2^(-2000 n) underflows to a zero norm_b
    ("experiment", {**experiment_config(None),
                    "operator": {"kind": "nonnormal", "lambdas": [[8.0, 0.0], [16.0, 0.0]]},
                    "norm_b": {"kind": "pl_square", "theta": -2000}}, "sample 0"),
], ids=["norm-eval-nan", "experiment-nan-norm", "experiment-zero-denominator"])
def test_non_finite_result_exits_4_without_report(tmp_path, capsys, command, config, reason):
    assert run_cli(tmp_path, command, config) == 4
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


_GRAPH = {"kind": "graph", "sigma": [[1, 1], [1, 1]]}
_NEGATIVE_PSI = {"kind": "continuous_square", "psi": {"kind": "psi_exp", "a": -1.0, "b": 1.0}}


@pytest.mark.parametrize("norm, reason", [
    ({"kind": "fractional_power", "theta": 1e6}, "non-finite weights lambda^theta"),
    ({"kind": "fractional_power", "theta": -400}, "non-finite weights lambda^theta"),
    ({"kind": "pl_inhomogeneous", "theta": 300}, "non-finite Parseval weights"),
    # an interpolation norm is refused where its K-functional is
    ({"kind": "real_interpolation", "theta1": 400}, "theta1=400.0: lam^theta1 leaves the float"),
    ({"kind": "real_interpolation", "theta0": -300}, "theta0=-300.0: lam^theta0 leaves the float"),
    ({"kind": "besov_continuous", "theta": 300}, "non-finite weights t^-theta"),
    # an l^q sum whose q-th powers overflow is refused as a non-finite value
    ({"kind": "besov_discrete", "theta": 1, "q": 1e308}, "non-finite value inf"),
    # a decay certificate whose constant (about 1e376) is not a float
    ({"kind": "continuous_square", "theta": 99, "psi": {"kind": "psi_exp", "a": 100, "b": 1}},
     "psi_exp has no finite decay certificate"),
    # on the synthesis route (p != 2) fields whose squares or p-th powers
    # overflow give an inf norm, refused as a non-finite value
    ({"kind": "pl_square", "theta": 300, "pnorm": 4}, "non-finite value inf"),
    ({"kind": "pl_random", "theta": 300, "count": 8, "pnorm": 4}, "non-finite value inf"),
    ({"kind": "fractional_power", "theta": 200, "pnorm": 4}, "non-finite value inf"),
    ({"kind": "continuous_square", "theta": 0.5, "pnorm": 4,
      "psi": {"kind": "psi_exp", "a": 60, "b": 1}}, "psi_exp has no finite decay certificate"),
    # du t^(-2 theta) overflows at the ends of the t-range, on both routes
    ({"kind": "continuous_square", "theta": 30, "psi": {"kind": "psi_exp", "a": 38, "b": 1}},
     "non-finite weights t^(-2 theta) at theta=30.0"),
    ({"kind": "continuous_square", "theta": 30, "pnorm": 4,
      "psi": {"kind": "psi_exp", "a": 38, "b": 1}},
     "non-finite weights t^(-2 theta) at theta=30.0"),
    ({"kind": "continuous_square", "theta": -30, "psi": {"kind": "psi_exp", "a": 38, "b": 1}},
     "non-finite weights t^(-2 theta) at theta=-30.0"),
    ({"kind": "continuous_square", "theta": -30, "psi": {"kind": "psi_exp", "a": 30, "b": 1}},
     "non-finite weights t^(-2 theta) at theta=-30.0"),
    # the t-range of an interpolation norm is sized from q-th powers
    ({"kind": "real_interpolation", "q": 1e4}, "q=10000.0 is too large"),
    ({"kind": "real_interpolation", "q": 1e308}, "q=1e+308 is too large"),
], ids=["fractional-power-high", "fractional-power-low", "pl-inhomogeneous",
        "real-interpolation-theta1", "real-interpolation-theta0", "besov-continuous",
        "besov-discrete-q", "psi-certificate", "pl-square-synthesis", "pl-random-synthesis",
        "fractional-power-synthesis", "continuous-square-synthesis",
        "continuous-square-weights", "continuous-square-weights-synthesis",
        "continuous-square-weights-negative-theta", "continuous-square-weights-a-30",
        "real-interpolation-q-1e4", "real-interpolation-q-1e308"])
def test_a_weight_that_overflows_is_refused_by_name_without_a_warning(tmp_path, capsys, norm,
                                                                      reason):
    # under the suite's warnings-as-errors filter a numpy warning would itself
    # become the reason
    config = norm_eval_config(operator={"kind": "dirichlet1d", "n": 16}, norm=norm,
                              vector={"kind": "random", "seed": 1})
    assert run_cli(tmp_path, "norm", config) == 4
    err = capsys.readouterr().err
    assert reason in err and "overflow encountered" not in err and "Warning" not in err
    assert not (tmp_path / "r.json").exists()


def test_an_interpolation_norm_of_an_exponent_that_underflows_is_refused_not_zero(tmp_path,
                                                                                  capsys):
    # dirichlet1d h = 10 has lam in [1.2e-3, 3.9e-2], where lam^200 underflows
    # to 0: the K-functional refuses theta1, and so does the norm, which for
    # this nonzero x is not 0
    config = norm_eval_config(operator={"kind": "dirichlet1d", "n": 8, "h": 10},
                              norm={"kind": "real_interpolation", "theta1": 200},
                              vector={"kind": "random", "seed": 1})
    assert run_cli(tmp_path, "norm", config) == 4
    assert "theta1=200.0: lam^theta1 leaves the float range" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("theta0, theta1", [
    (120, 121),     # (u a)^2 and (v a)^2 underflow to 0
    (-100, -99),    # (u a)^2 and (v a)^2 overflow
])
def test_an_interpolation_norm_whose_boundary_norms_under_or_overflow_is_refused(
        tmp_path, capsys, theta0, theta1):
    # dirichlet1d n = 1, h = 10 has lam = 0.02: lam^theta and rho are in
    # range, but the squares in ||A^theta x|| of the scaled x are not; the
    # norm of this nonzero x was 0 (exit 0), or failed on its t-range
    config = norm_eval_config(operator={"kind": "dirichlet1d", "n": 1, "h": 10},
                              norm={"kind": "real_interpolation", "theta0": theta0,
                                    "theta1": theta1},
                              vector={"kind": "random", "seed": 1})
    assert run_cli(tmp_path, "norm", config) == 4
    err = capsys.readouterr().err
    assert f"exponents theta0={theta0}.0, theta1={theta1}.0" in err
    assert "under- or overflow for this x" in err and "Warning" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, config, reason", [
    # the strip windows sit on log A, which an operator with a kernel lacks
    ("experiment", {**experiment_config(None), "operator": _GRAPH, "samples": 2,
                    "norm_a": {"kind": "strip_pl_square"}},
     "norm not admitted: equidistant windows sit on Re log A, which needs an injective"),
    ("norm", norm_eval_config(operator=_GRAPH, norm={"kind": "strip_pl_square"}), "injective"),
    ("experiment", {**experiment_config(None), "norm_a": _NEGATIVE_PSI},
     "norm not admitted: psi_exp requires a, b > 0"),
    ("norm", norm_eval_config(norm=_NEGATIVE_PSI), "psi_exp requires a, b > 0"),
], ids=["experiment-strip-graph", "norm-eval-strip-graph", "experiment-bad-symbol",
        "norm-eval-bad-symbol"])
def test_refused_norm_exits_4_and_names_the_refusal(tmp_path, capsys, command, config, reason):
    assert run_cli(tmp_path, command, config) == 4
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


def test_subcommands_take_only_the_options_they_read(tmp_path, monkeypatch, capsys):
    from plcalc import acceptance

    def battery_ran(echo=None):
        raise AssertionError("the acceptance battery ran")

    monkeypatch.setattr(acceptance, "run_all", battery_ran)
    cfg = write(tmp_path, "op.json", {"kind": "dirichlet1d", "n": 2, "h": 1.0})
    assert main(["op", "build"]) == 2                                     # --config required
    assert "--config" in capsys.readouterr().err
    assert main(["op", "build", "--config", cfg, "--seed", "1"]) == 2     # op build reads no seed
    assert main(["suite", "acceptance", "--seed", "1"]) == 2
    assert main(["suite", "acceptance", "--config", cfg]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["op", "build", "--config", cfg, "--quiet"]) == 0


def test_real_interpolation_admits_only_p_2(tmp_path, capsys):
    # the K-functional is a p = 2 construction: pnorm 4 is refused, not
    # silently replaced by the p = 2 norm, and the echo carries pnorm
    rin = {"kind": "real_interpolation", "pnorm": 4}
    assert run_cli(tmp_path, "norm", norm_eval_config(
        norm=rin, vector={"kind": "random", "seed": 1})) == 4
    assert "p = 2" in capsys.readouterr().err
    assert run_cli(tmp_path, "experiment", {**experiment_config(None), "norm_a": rin}) == 4
    assert "norm not admitted" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    assert run_cli(tmp_path, "norm", norm_eval_config(
        norm=dict(rin, pnorm=2), vector={"kind": "random", "seed": 1})) == 0
    echo = json.loads((tmp_path / "r.json").read_text())["provenance"]["norm"]
    assert echo["pnorm"] == 2 and echo["kind"] == "real_interpolation"


def test_reports_refuse_non_finite_json(tmp_path, capsys):
    from plcalc.cli import _emit

    with pytest.raises(ValueError):
        _emit({"norm": float("nan")}, None, quiet=True)
    # the report is encoded before anything is written
    out = tmp_path / "r.json"
    with pytest.raises(ValueError):
        _emit({"norm": float("inf")}, str(out), quiet=False)
    assert not out.exists() and capsys.readouterr().out == ""


def _indented(payload):
    """The report encoding before reports became one line: json's
    pure-Python encoder, keys sorted, two-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fake_battery(echo=None):
    from plcalc.acceptance import CriterionResult

    return [CriterionResult(1, "overlap sandwich", True, "ratio range [0.8, 0.9]"),
            CriterionResult(2, "fractional sandwich", True, "theta=+0.5: [0.8, 0.9]")]


@pytest.mark.parametrize("argv, config", [
    (["op", "build"], {"kind": "graph", "sigma": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5],
                                                  [0.0, 0.5, 1.0]]}),
    (["norm", "eval", "--seed", "7"],
     {"operator": {"kind": "schrodinger", "n": 8, "h": 0.5, "V": {"quadratic": 0.3}},
      "norm": {"kind": "besov_discrete", "pnorm": 4, "theta": 0.5, "q": 2},
      "vector": {"kind": "random"}}),
    (["experiment", "run", "--seed", "21"], experiment_config([SQRT_HALF - 1e-9, 1 + 1e-9])),
    (["suite", "acceptance"], None),
], ids=["op-build", "norm-eval", "experiment-run", "suite-acceptance"])
def test_a_report_is_one_json_line_with_sorted_keys(tmp_path, monkeypatch, capsys, argv, config):
    from plcalc import acceptance, cli

    monkeypatch.setattr(acceptance, "run_all", _fake_battery)
    payloads = []
    encode = cli._encode

    def recorded(payload):
        payloads.append(payload)
        return encode(payload)

    monkeypatch.setattr(cli, "_encode", recorded)
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        cfg = [] if config is None else ["--config", write(tmp_path, "config.json", config)]
        assert main(argv + cfg + ["--out", str(out), "--quiet"]) == 0
        reports.append(out.read_bytes())
    assert capsys.readouterr().out == ""
    # two runs of one (config, seed) write the same bytes
    assert reports[0] == reports[1]
    text = reports[0].decode()
    assert text.endswith("\n") and text.count("\n") == 1
    parsed = json.loads(text)
    # the same values as the indented encoding of the same payload, and
    # nothing but the layout differs: the keys are sorted
    assert len(payloads) == 2 and parsed == json.loads(_indented(payloads[0]))
    assert text == json.dumps(parsed, sort_keys=True) + "\n"
    assert "".join(text.split()) == "".join(_indented(payloads[0]).split())


def test_a_printed_report_is_the_written_line(tmp_path, capsys):
    cfg = write(tmp_path, "op.json", {"kind": "dirichlet1d", "n": 4, "h": 0.5})
    out = tmp_path / "r.json"
    assert main(["op", "build", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert main(["op", "build", "--config", cfg]) == 0
    assert capsys.readouterr().out == out.read_text()


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


# -- values that do not read as numbers ----------------------------------------

_NON_NUMERIC_OPERATORS = [
    ({"kind": "dirichlet1d", "n": "abc"}, "'n' in dirichlet1d operator spec"),
    ({"kind": "dirichlet1d", "n": 8, "h": "wide"}, "'h' in dirichlet1d operator spec"),
    ({"kind": "graph", "sigma": [["a", 1], [1, 1]]}, "'sigma' in graph operator spec"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"n": "many"}}, "'n' in hermite grid"),
    ({"kind": "schrodinger", "n": 8, "V": {"quadratic": "x"}},
     "'quadratic' in schrodinger potential"),
    ({"kind": "nonnormal", "lambdas": [[1.0, 0.0, 2.0]]}, "'lambdas' in nonnormal operator spec"),
    # integer keys refuse a fraction, which int() would truncate, and a boolean
    ({"kind": "dirichlet1d", "n": 8.7}, "'n' in dirichlet1d operator spec"),
    ({"kind": "schrodinger", "n": 8.5}, "'n' in schrodinger operator spec"),
    ({"kind": "hermite", "d": True, "K": 4}, "'d' in hermite operator spec"),
    ({"kind": "hermite", "d": 1, "K": 4.5}, "'K' in hermite operator spec"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"n": 600.5}}, "'n' in hermite grid"),
    ({"kind": "nonnormal", "lambdas": [[1.0, 0.0], [2.0, 0.0]], "seed": 0.5},
     "'seed' in nonnormal operator spec"),
    # seeds are >= 0: numpy's generators take no negative seed
    ({"kind": "nonnormal", "lambdas": [[1.0, 0.0], [2.0, 0.0]], "seed": -1},
     "'seed' in nonnormal operator spec: expected an integer >= 0"),
    # json reads NaN, which no comparison refuses, so the file is refused
    ({"kind": "nonnormal", "lambdas": [[1.0, 0.0], [2.0, 0.0]], "conditioning": float("nan")},
     "NaN is not standard JSON"),
    # an integer too large for a float
    ({"kind": "dirichlet1d", "n": 8, "h": 10**400}, "'h' in dirichlet1d operator spec"),
    # a spec that is not an object of a known kind
    ("x", "'kind' in operator spec"),
    ({"n": 8}, "'kind' in operator spec"),
    ({"kind": "dirichlet2d"}, "unknown operator kind 'dirichlet2d'"),
    # sizes whose arrays would exceed MAX_ENTRIES entries
    ({"kind": "dirichlet1d", "n": 1e30}, "'n' in dirichlet1d operator spec"),
    ({"kind": "schrodinger", "n": 100000}, "'n' in schrodinger operator spec"),
    ({"kind": "hermite", "d": 1, "K": 30000}, "'K' in hermite operator spec"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"n": 10**9}}, "'n' in hermite grid"),
    ({"kind": "nonnormal", "lambdas": [[1.0, 0.0]] * 4097},
     "'lambdas' in nonnormal operator spec"),
    # sizes below 1
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"n": 0}}, "'n' in hermite grid: must be >= 1"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": []}, "hermite grid must be an object"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"n": -5}}, "'n' in hermite grid: must be >= 1"),
    ({"kind": "schrodinger", "n": -3}, "'n' in schrodinger operator spec: must be >= 1"),
    # a number beyond the float range decodes to +-inf, which a scalar key refuses
    ({"kind": "dirichlet1d", "n": 8, "h": BIG}, "'h' in dirichlet1d operator spec: must be finite"),
    ({"kind": "schrodinger", "n": 8, "h": BIG}, "'h' in schrodinger operator spec: must be finite"),
    ({"kind": "schrodinger", "n": 8, "V": {"quadratic": NEG_BIG}},
     "'quadratic' in schrodinger potential: must be finite"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"lo": NEG_BIG}},
     "'lo' in hermite grid: must be finite"),
    ({"kind": "hermite", "d": 1, "K": 4, "grid": {"hi": BIG}},
     "'hi' in hermite grid: must be finite"),
    ({"kind": "nonnormal", "lambdas": [[1.0, 0.0], [2.0, 0.0]], "conditioning": BIG},
     "'conditioning' in nonnormal operator spec: must be finite"),
]
_OPERATOR_IDS = ["dirichlet-n", "dirichlet-h", "graph-sigma", "hermite-grid", "schrodinger-V",
                 "nonnormal-lambdas", "dirichlet-n-fraction", "schrodinger-n-fraction",
                 "hermite-d-boolean", "hermite-K-fraction", "hermite-grid-fraction",
                 "nonnormal-seed-fraction", "nonnormal-seed-negative",
                 "nonnormal-conditioning-nan", "dirichlet-h-integer-overflow", "not-an-object",
                 "no-kind", "unknown-kind",
                 "dirichlet-n-too-large", "schrodinger-n-too-large", "hermite-K-too-large",
                 "hermite-grid-too-large", "nonnormal-lambdas-too-many", "hermite-grid-zero",
                 "hermite-grid-not-an-object",
                 "hermite-grid-negative", "schrodinger-n-negative", "dirichlet-h-1e999",
                 "schrodinger-h-1e999", "schrodinger-quadratic-1e999", "hermite-lo-1e999",
                 "hermite-hi-1e999", "nonnormal-conditioning-1e999"]


@pytest.mark.parametrize("spec, named", _NON_NUMERIC_OPERATORS, ids=_OPERATOR_IDS)
def test_op_build_names_a_non_numeric_operator_value_and_exits_2(tmp_path, capsys, spec, named):
    cfg = write(tmp_path, "op.json", spec)
    assert main(["op", "build", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("spec, named", _NON_NUMERIC_OPERATORS, ids=_OPERATOR_IDS)
def test_norm_eval_names_a_non_numeric_operator_value_and_exits_2(tmp_path, capsys, spec,
                                                                   named):
    assert run_cli(tmp_path, "norm", norm_eval_config(operator=spec)) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("spec, named", _NON_NUMERIC_OPERATORS, ids=_OPERATOR_IDS)
def test_experiment_run_names_a_non_numeric_operator_value_and_exits_2(tmp_path, capsys, spec,
                                                                       named):
    assert run_cli(tmp_path, "experiment", {**experiment_config(None), "operator": spec}) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("norm, named", [
    ({"kind": "pl_square", "theta": "abc"}, "'theta' in pl_square norm spec"),
    ({"kind": "pl_square", "pnorm": "two"}, "'pnorm' in pl_square norm spec"),
    ({"kind": "pl_square", "pnorm": 0.5}, "'pnorm' in pl_square norm spec: must be >= 1"),
    ({"kind": "pl_random", "count": "many"}, "'count' in pl_random norm spec"),
    ({"kind": "pl_random", "count": 2.5}, "'count' in pl_random norm spec"),
    ({"kind": "pl_random", "count": 0}, "'count' in pl_random norm spec: must be >= 1"),
    ({"kind": "pl_random", "ensemble_seed": True}, "'ensemble_seed' in pl_random norm spec"),
    ({"kind": "pl_random", "sign_kind": "bogus"}, "'sign_kind' in pl_random norm spec"),
    ({"kind": "besov_discrete", "q": "x"}, "'q' in besov_discrete norm spec"),
    ({"kind": "real_interpolation", "vartheta": [0.5]}, "'vartheta' in real_interpolation"),
    ({"kind": "continuous_square", "psi": {"kind": "psi_exp", "a": "x", "b": 1.0}},
     "'a' in psi_exp symbol spec"),
    ("pl_square", "'kind' in norm spec"),
    ({"pnorm": 2}, "'kind' in norm spec"),
    ({"kind": "bogus"}, "unknown norm kind 'bogus'"),
    ({"kind": "continuous_square", "psi": {"kind": "bogus"}}, "unknown symbol kind 'bogus'"),
    ({"kind": "continuous_square", "psi": "rho"}, "'kind' in symbol spec"),
    # a symbol takes no weight: the norm that applies theta admits it or not
    ({"kind": "continuous_square", "psi": {"kind": "psi_exp", "a": 1.0, "b": 1.0, "theta": 0.5}},
     "unknown key(s) 'theta' in psi_exp symbol spec"),
    ({"kind": "besov_continuous", "f": {"kind": "res_frac", "a": 1.0, "b": 2.0, "theta": 0.5}},
     "unknown key(s) 'theta' in res_frac symbol spec"),
    # the spec is read in full before its stack is built, which would fail
    ({"kind": "pl_square", "theta": 1e6, "thetta": 1},
     "unknown key(s) 'thetta' in pl_square norm spec"),
    ({"kind": "real_interpolation", "pnorm": 4, "varthetta": 0.5},
     "unknown key(s) 'varthetta' in real_interpolation norm spec"),
    # a number beyond the float range decodes to +-inf: infinity is "inf" only
    ({"kind": "pl_square", "pnorm": BIG}, "'pnorm' in pl_square norm spec: must be finite"),
    ({"kind": "besov_discrete", "q": BIG}, "'q' in besov_discrete norm spec: must be finite"),
    ({"kind": "real_interpolation", "q": BIG}, "'q' in real_interpolation norm spec"),
    ({"kind": "pl_square", "theta": BIG}, "'theta' in pl_square norm spec: must be finite"),
    ({"kind": "besov_discrete", "theta": NEG_BIG}, "'theta' in besov_discrete norm spec"),
    ({"kind": "real_interpolation", "vartheta": BIG}, "'vartheta' in real_interpolation"),
    ({"kind": "real_interpolation", "theta0": NEG_BIG}, "'theta0' in real_interpolation"),
    ({"kind": "real_interpolation", "theta1": BIG}, "'theta1' in real_interpolation"),
    ({"kind": "continuous_square", "psi": {"kind": "psi_exp", "a": BIG, "b": 1.0}},
     "'a' in psi_exp symbol spec: must be finite"),
    ({"kind": "besov_continuous", "f": {"kind": "res_frac", "a": 1.0, "b": BIG}},
     "'b' in res_frac symbol spec: must be finite"),
    ({"kind": "continuous_square", "psi": {"kind": "imag_power", "s": NEG_BIG}},
     "'s' in imag_power symbol spec: must be finite"),
    ({"kind": "besov_continuous", "f": {"kind": "power", "theta": BIG}},
     "'theta' in power symbol spec: must be finite"),
    ({"kind": "continuous_square",
      "psi": {"kind": "psi_res", "a": 1.0, "b": 2.0, "lambda0": NEG_BIG}},
     "'lambda0' in psi_res symbol spec: must be finite"),
], ids=["theta", "pnorm", "pnorm-below-1", "count", "count-fraction", "count-below-1",
        "ensemble-seed-boolean", "sign-kind", "q", "vartheta", "psi-parameter", "not-an-object",
        "no-kind", "unknown-kind", "psi-unknown-kind", "psi-not-an-object", "psi-theta",
        "f-theta", "misspelled-key-of-a-refused-weight", "misspelled-key-of-a-refused-pnorm",
        "pnorm-1e999", "besov-q-1e999", "interpolation-q-1e999", "theta-1e999",
        "theta-minus-1e999", "vartheta-1e999", "theta0-1e999", "theta1-1e999", "psi-a-1e999",
        "f-b-1e999", "imag-power-s-1e999", "power-theta-1e999", "psi-res-lambda0-1e999"])
@pytest.mark.parametrize("command", ["norm", "experiment"])
def test_a_non_numeric_norm_value_is_a_malformed_config(tmp_path, capsys, command, norm, named):
    # exit 2 and the key named, not exit 4: the norm was never refused
    config = (norm_eval_config(norm=norm) if command == "norm"
              else {**experiment_config(None), "norm_a": norm})
    assert run_cli(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert named in err and "norm evaluation failed" not in err and "not admitted" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("f", [{}, 0, None, []], ids=["object", "zero", "null", "list"])
def test_a_malformed_besov_window_is_refused_not_replaced_by_the_default(tmp_path, capsys, f):
    # only an absent "f" means the default window; any value given is a symbol spec
    config = norm_eval_config(operator={"kind": "dirichlet1d", "n": 16, "h": 1.0},
                              norm={"kind": "besov_continuous", "f": f})
    assert run_cli(tmp_path, "norm", config) == 2
    assert "'kind' in symbol spec" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_both_norm_specs_are_read_before_either_is_built(tmp_path, capsys):
    # norm_a alone would be refused ("norm not admitted"), but norm_b holds
    # a misspelled key, which is the reason given
    config = {**experiment_config(None), "norm_a": {"kind": "pl_square", "theta": 1e6},
              "norm_b": {"kind": "ambient", "pnrom": 2}}
    assert run_cli(tmp_path, "experiment", config) == 2
    err = capsys.readouterr().err
    assert "unknown key(s) 'pnrom' in ambient norm spec" in err
    assert "norm evaluation failed" not in err and "not admitted" not in err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


_LARGE_DIRICHLET = {"kind": "dirichlet1d", "n": 4096}
_LARGE_COUNT = {"kind": "pl_random", "count": 4097}
_COUNT_CAPPED = "'count' in pl_random norm spec: 16781312 array entries exceed the cap 16777216"


@pytest.mark.parametrize("command, config, named", [
    ("norm", {**norm_eval_config(), "seed": "abc"}, "'seed' in norm eval config"),
    ("norm", norm_eval_config(vector={"kind": "eigenvector", "index": "first"}),
     "'index' in eigenvector vector spec"),
    ("norm", norm_eval_config(vector={"kind": "random", "seed": "s"}),
     "'seed' in random vector spec"),
    ("experiment", {**experiment_config(None), "samples": "ten"},
     "'samples' in experiment config"),
    ("experiment", {**experiment_config([0.5]), "samples": 2},
     "'assert_bracket' in experiment config"),
    ("norm", {**norm_eval_config(), "seed": 1.5}, "'seed' in norm eval config"),
    ("norm", norm_eval_config(vector={"kind": "eigenvector", "index": 0.5}),
     "'index' in eigenvector vector spec"),
    ("norm", norm_eval_config(vector={"kind": "eigenvector", "index": True}),
     "'index' in eigenvector vector spec"),
    ("norm", norm_eval_config(vector={"kind": "random", "seed": 2.5}),
     "'seed' in random vector spec"),
    ("experiment", {**experiment_config(None), "seed": 3.5}, "'seed' in experiment config"),
    ("experiment", {**experiment_config(None), "samples": 10.5},
     "'samples' in experiment config"),
    ("experiment", {**experiment_config(None), "samples": 0},
     "'samples' in experiment config: must be >= 1"),
    # a vector spec or a whole config that is not an object
    ("norm", norm_eval_config(vector="x"), "'kind' in vector spec"),
    ("norm", norm_eval_config(vector={"kind": ["random"]}), "unknown vector kind"),
    ("norm", [1, 2], "norm eval config must be a JSON object"),
    ("experiment", [1, 2], "experiment config must be a JSON object"),
    # the non-standard tokens NaN, Infinity and -Infinity are refused when read
    ("experiment", experiment_config([float("nan"), 1.0]),
     "config.json: NaN is not standard JSON"),
    ("experiment", experiment_config([float("-inf"), 1.0]),
     "config.json: -Infinity is not standard JSON"),
    # bracket bounds are finite numbers
    ("experiment", experiment_config([0.5, "1e400"]),
     "'assert_bracket' in experiment config: bounds must be finite"),
    ("experiment", experiment_config([0.5, 10**400]), "'assert_bracket' in experiment config"),
    # and in order: a reversed bracket would fail every sample
    ("experiment", experiment_config([1, 0]),
     "'assert_bracket' in experiment config: lower bound above upper bound"),
    # seeds are >= 0
    ("experiment", {**experiment_config(None), "seed": -1},
     "'seed' in experiment config: expected an integer >= 0"),
    ("norm", {**norm_eval_config(vector={"kind": "random"}), "seed": -3},
     "'seed' in norm eval config: expected an integer >= 0"),
    ("norm", norm_eval_config(vector={"kind": "random", "seed": -3}),
     "'seed' in random vector spec: expected an integer >= 0"),
    ("norm", norm_eval_config(norm={"kind": "pl_random", "ensemble_seed": -1}),
     "'ensemble_seed' in pl_random norm spec: expected an integer >= 0"),
    ("experiment", {**experiment_config(None),
                    "norm_a": {"kind": "pl_random", "ensemble_seed": -1}},
     "'ensemble_seed' in pl_random norm spec: expected an integer >= 0"),
    # count x n = 4097 x 4096 float64 entries, refused before any draw
    ("norm", norm_eval_config(operator=_LARGE_DIRICHLET, norm=_LARGE_COUNT), _COUNT_CAPPED),
    ("experiment", {**experiment_config(None), "operator": _LARGE_DIRICHLET,
                    "norm_a": _LARGE_COUNT}, _COUNT_CAPPED),
    # "false" is a string, which would read as true
    ("norm", norm_eval_config(vector={"kind": "random", "seed": 1, "normalize": "false"}),
     "'normalize' in random vector spec: expected true or false"),
    # a number beyond the float range decodes to inf: infinity is "inf" only
    ("experiment", {**experiment_config(None), "pnorm": BIG},
     "'pnorm' in experiment config: must be finite"),
], ids=["norm-eval-seed", "vector-index", "vector-seed", "samples", "bracket",
        "norm-eval-seed-fraction", "vector-index-fraction", "vector-index-boolean",
        "vector-seed-fraction", "experiment-seed-fraction", "samples-fraction",
        "samples-below-1", "vector-not-an-object", "vector-kind-not-a-string",
        "norm-eval-config-not-an-object", "experiment-config-not-an-object",
        "bracket-nan-token", "bracket-minus-infinity-token", "bracket-overflow",
        "bracket-integer-overflow", "bracket-reversed", "experiment-seed-negative", "norm-eval-seed-negative",
        "vector-seed-negative", "norm-eval-ensemble-seed-negative",
        "experiment-ensemble-seed-negative", "norm-eval-count-too-large",
        "experiment-count-too-large", "vector-normalize-string", "experiment-pnorm-1e999"])
def test_a_non_numeric_config_value_is_named(tmp_path, capsys, command, config, named):
    assert run_cli(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()
