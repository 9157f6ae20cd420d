import json
import subprocess
import sys

import numpy as np
import pytest
import scipy

import wolffkit
from wolffkit.cli import main
from wolffkit.radial import read_profile, unit_ball_volume, write_profile

from conftest import indicator_of_ball

PARAMS = [
    "--n", "5", "--beta", "1", "--gamma", "2",
    "--p", "2", "--q", "2", "--sigma1", "0", "--sigma2", "0",
]


def run_cli(*args, check=False):
    result = subprocess.run(
        [sys.executable, "-m", "wolffkit", *args],
        capture_output=True,
        text=True,
    )
    if check and result.returncode != 0:
        raise AssertionError(f"CLI failed ({result.returncode}): {result.stderr}")
    return result


def test_classify_emits_regime_report():
    result = run_cli("classify", *PARAMS, check=True)
    data = json.loads(result.stdout)
    assert data == {
        "regime": "FastFast",
        "u_exponent": 3.0,
        "v_exponent": 3.0,
        "v_log_power": 0.0,
        "subcriticality": "Subcritical",
    }


def test_classify_accepts_params_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 5, "beta": 1, "gamma": 2, "p": 1.5, "q": 3,
                                "sigma1": 0, "sigma2": 0}))
    result = run_cli("classify", "--params", str(path), check=True)
    assert json.loads(result.stdout)["regime"] == "Intermediate"


def test_missing_argument_is_usage_error():
    result = run_cli("eval", "--op", "wolff")
    assert result.returncode == 2


def test_missing_parameter_is_domain_error():
    result = run_cli("classify", "--n", "5")
    assert result.returncode == 1
    err = json.loads(result.stderr)
    assert "message" in err and "missing" in err["message"]


def test_invalid_parameters_exit_one():
    result = run_cli(
        "classify", "--n", "5", "--beta", "1", "--gamma", "3",
        "--p", "2", "--q", "2", "--sigma1", "0", "--sigma2", "0",
    )
    assert result.returncode == 1
    err = json.loads(result.stderr)
    assert "gamma" in err["message"]


def test_eval_wolff_round_trip(tmp_path):
    src = indicator_of_ball(1.0)
    src_path = tmp_path / "src.csv"
    write_profile(src, src_path)
    out_path = tmp_path / "out.csv"
    run_cli(
        "eval", "--op", "wolff", *PARAMS,
        "--source", str(src_path), "--out", str(out_path),
        check=True,
    )
    out = read_profile(out_path)
    assert out.tail_exponent == pytest.approx(3.0)
    # near the origin the potential approaches the closed-form center value
    center = unit_ball_volume(5) * (1.0 / 2.0 + 1.0 / 3.0)
    assert out.values[0] == pytest.approx(center, rel=1e-3)


@pytest.mark.parametrize(
    "config, named",
    [({"t_nodes_per_decde": 32}, "t_nodes_per_decde"), ([32], "[32]")],
)
def test_eval_malformed_config_is_json_domain_error(tmp_path, capsys, config, named):
    src_path = tmp_path / "src.csv"
    write_profile(indicator_of_ball(1.0), src_path)
    cfg_path = tmp_path / "potential.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    code = main([
        "eval", "--op", "wolff", *PARAMS, "--source", str(src_path),
        "--config", str(cfg_path), "--out", str(out_path),
    ])
    assert code == 1 and not out_path.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and named in err["message"]


def test_eval_riesz_matches_center_closed_form(tmp_path):
    src = indicator_of_ball(1.0)
    src_path = tmp_path / "src.csv"
    write_profile(src, src_path)
    out_path = tmp_path / "out.csv"
    run_cli(
        "eval", "--op", "riesz", *PARAMS,
        "--source", str(src_path), "--out", str(out_path),
        check=True,
    )
    out = read_profile(out_path)
    # alpha = beta*gamma = 2: I_2(indicator)(0) = s_{n-1}/2
    from wolffkit.radial import sphere_surface

    assert out.values[0] == pytest.approx(sphere_surface(5) / 2.0, rel=1e-3)


def test_eval_missing_sidecar_is_domain_error(tmp_path):
    src_path = tmp_path / "src.csv"
    src_path.write_text("r,value\n" + "\n".join(f"{r},1.0" for r in np.geomspace(0.01, 1, 24)))
    result = run_cli(
        "eval", "--op", "wolff", *PARAMS,
        "--source", str(src_path), "--out", str(tmp_path / "o.csv"),
    )
    assert result.returncode == 1
    assert "sidecar" in json.loads(result.stderr)["message"]


def _check_provenance(report, config):
    provenance = report["provenance"]
    assert provenance["wolffkit"] == wolffkit.__version__
    assert provenance["numpy"] == np.__version__
    assert provenance["scipy"] == scipy.__version__
    assert provenance["config"] == config


def test_shoot_writes_result_directory(tmp_path):
    # with --no-timestamp the report, provenance included, repeats byte for byte
    for name in ("res", "again"):
        run_cli(
            "shoot",
            "--n", "3", "--beta", "1", "--gamma", "2",
            "--p", "5", "--q", "5", "--sigma1", "0", "--sigma2", "0",
            "--a", "1.0", "--out", str(tmp_path / name), "--no-timestamp",
            check=True,
        )
    out_dir = tmp_path / "res"
    assert (out_dir / "report.json").read_bytes() == (tmp_path / "again" / "report.json").read_bytes()
    report = json.loads((out_dir / "report.json").read_text())
    _check_provenance(
        report,
        {"a": 1.0, "bracket": [0.01, 100.0], "r_stop": 1e4, "final_r_stop": 1e4, "fit_decades": 2.0},
    )
    assert report["converged"] is True
    assert report["command"] == "shoot"
    assert (out_dir / "u.csv").exists() and (out_dir / "u.json").exists()
    assert (out_dir / "v.csv").exists()
    u = read_profile(out_dir / "u.csv")
    assert np.all(u.values > 0)
    assert report["rate_u"]["exponent"] == pytest.approx(1.0, rel=0.05)  # n - 2


def test_solve_writes_result_directory(tmp_path):
    # scalar critical case: the fast ansatz is already the solution shape,
    # so the solve converges within a couple of iterations
    p_path = tmp_path / "p.json"
    p_path.write_text(json.dumps({"n": 5, "beta": 1, "gamma": 2, "p": 7 / 3, "q": 7 / 3,
                                  "sigma1": 0, "sigma2": 0}))
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps({
        "max_iters": 4,
        "rel_tol": 5e-3,
        "grid": {"r_min": 1e-2, "r_max": 1e2, "nodes_per_decade": 16},
    }))
    out_dir = tmp_path / "res"
    run_cli(
        "solve", "--params", str(p_path), "--config", str(cfg_path),
        "--out", str(out_dir), "--no-timestamp",
        check=True,
    )
    report = json.loads((out_dir / "report.json").read_text())
    assert report["command"] == "solve"
    config = report["provenance"]["config"]
    assert config["grid"] == {"r_min": 1e-2, "r_max": 1e2, "count": 65}
    assert config["max_iters"] == 4 and config["damping"] == 0.8
    assert report["converged"] is True
    assert report["predicted"]["regime"] == "FastFast"
    assert report["rate_u"]["exponent"] == pytest.approx(3.0, rel=0.05)
    assert (out_dir / "u.csv").exists() and (out_dir / "v.csv").exists()


@pytest.mark.parametrize(
    "config, named",
    [
        ({"max_iters": 4, "max_iter": 4}, "max_iter"),
        ({"coefficients": [1.0, 1.0]}, "coefficients"),  # profiles, not JSON values
        ({"grid": {"r_min": 1e-2, "nodes_per_decade": 16}}, "r_max"),
        ({"grid": 16}, "16"),
        ({"normalization": "FixMas"}, "normalization"),
        ({"initial": "fast"}, "initial"),
        ({"norm_radius": 1.0}, "norm_radius"),
        ({"allow_subcritical": True}, "allow_subcritical"),
        ({"grid": {"r_min": 1e-2, "r_max": 1e3, "nodes_per_decde": 8}}, "nodes_per_decde"),
        ({"potential": {"t_nodes_per_decde": 32}}, "t_nodes_per_decde"),
        ({"potential": 32}, "32"),
    ],
)
def test_solve_malformed_config_is_json_domain_error(tmp_path, capsys, config, named):
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["solve", *PARAMS, "--config", str(cfg_path), "--out", str(tmp_path / "res")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and named in err["message"]


@pytest.mark.parametrize("r_stop", ["1e-5", "inf"])
def test_shoot_out_of_range_r_stop_is_json_domain_error(tmp_path, capsys, r_stop):
    out_dir = tmp_path / "res"
    code = main([
        "shoot", "--n", "5", "--beta", "1", "--gamma", "2", "--p", "2", "--q", "2.75",
        "--sigma1", "0", "--sigma2", "0", "--r-stop", r_stop, "--out", str(out_dir),
    ])
    assert code == 1 and not out_dir.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and "r_stop" in err["message"]


def test_verify_rates_report_names_the_solver(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        run_cli(
            "verify", "--n", "3", "--beta", "1", "--gamma", "2", "--p", "5", "--q", "5",
            "--sigma1", "0", "--sigma2", "0", "--suite", "rates",
            "--out", str(out), "--no-timestamp",
            check=True,
        )
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["solver"] == "shooting"
    assert report["provenance"]["config"]["solver"]["final_r_stop"] == 1e4


def test_verify_inequalities_with_divergent_norms_is_json_domain_error(capsys):
    # at beta*gamma = 2.5 and the default p = 2, p (n - alpha)/(gamma - 1) = 5 = n
    code = main([
        "verify", "--n", "5", "--beta", "1.25", "--gamma", "2", "--p", "2", "--q", "3",
        "--sigma1", "-1", "--sigma2", "0", "--suite", "inequalities",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and "p = 2.0" in err["message"]


def test_verify_loglimit_report_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        run_cli(
            "verify", *PARAMS, "--suite", "loglimit", "--seed", "7",
            "--out", str(out), "--no-timestamp",
            check=True,
        )
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    _check_provenance(data, {"suite": "loglimit", "seed": 7, "solver": None})
    assert data["suite"] == "loglimit"
    assert data["solver"] is None
    assert data["seed"] == 7
    names = {c["name"] for c in data["checks"]}
    assert "log_limit_at_1e5" in names
    first = [c for c in data["checks"] if c["name"] == "log_limit_at_1e5"][0]
    assert first["measured"] == pytest.approx(0.34298, abs=1e-4)
    for entry in data["checks"]:
        assert {"name", "paper_ref", "status", "measured", "expected", "tolerance"} <= set(entry)
