"""Command-line interface: classify, eval, solve, shoot, verify.

All structured output is JSON (profiles travel as CSV with a JSON sidecar).
Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error.  Every report.json (solve, shoot, verify) carries provenance:
the wolffkit, numpy and scipy versions and the settings as resolved, so that
with --no-timestamp a report is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ProfileFormatError, WolffkitError
from .params import PARAM_KEYS, Parameters, classify_regime
from .potential import PotentialConfig, riesz_eval, wolff_eval
from .quasilinear import GroundStateConfig, ShootConfig, find_fast_ground_state
from .radial import read_profile, write_profile
from .solver import SolveConfig, solve_system
from .verify import SUITES, run_suite


def _load_params(args) -> Parameters:
    if getattr(args, "params", None):
        with open(args.params) as fh:
            data = json.load(fh)
        return Parameters.from_dict(data)
    values = {k: getattr(args, k) for k in PARAM_KEYS}
    missing = [k for k in PARAM_KEYS if values[k] is None]
    if missing:
        raise WolffkitError(
            f"missing parameters {missing}; pass --params FILE or all of "
            + " ".join("--" + k for k in PARAM_KEYS)
        )
    return Parameters(int(values["n"]), *(float(values[k]) for k in PARAM_KEYS[1:]))


def _add_param_flags(sub):
    sub.add_argument("--params", help="JSON file with keys n beta gamma p q sigma1 sigma2")
    for key in PARAM_KEYS:
        sub.add_argument(f"--{key}", type=float, default=None)


def _json_out(data, path=None):
    text = json.dumps(data, indent=2, sort_keys=False)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _cmd_classify(args) -> int:
    params = _load_params(args)
    report = classify_regime(params)
    _json_out(report.to_dict(), getattr(args, "out", None))
    return 0


def _cmd_eval(args) -> int:
    params = _load_params(args)
    source = read_profile(args.source)
    cfg = None
    if args.config:
        with open(args.config) as fh:
            cfg = PotentialConfig.from_dict(json.load(fh))
    if args.op == "wolff":
        out = wolff_eval(source, params.n, params.beta, params.gamma, cfg)
    else:
        out = riesz_eval(source, params.n, params.beta * params.gamma, cfg)
    write_profile(out, args.out)
    return 0


def _provenance(config: dict) -> dict:
    """What made a report: the library versions and the resolved settings."""
    return {
        "wolffkit": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config": config,
    }


def _solve_report(result, out_dir: Path, command: str, args, started: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_profile(result.u, out_dir / "u.csv")
    write_profile(result.v, out_dir / "v.csv")
    report = result.to_report_dict()
    report["command"] = command
    report["provenance"] = _provenance(result.config)
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S") + f" ({time.time() - started:.1f}s)"
    _json_out(report, out_dir / "report.json")


def _cmd_solve(args) -> int:
    started = time.time()
    params = _load_params(args)
    cfg = SolveConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = SolveConfig.from_dict(json.load(fh))
    result = solve_system(params, cfg)
    _solve_report(result, Path(args.out), "solve", args, started)
    return 0


def _cmd_shoot(args) -> int:
    started = time.time()
    params = _load_params(args)
    cfg = GroundStateConfig(
        a=args.a,
        bracket=tuple(float(x) for x in args.bracket.split(",")),
        shoot=ShootConfig(r_stop=args.r_stop),
        final_r_stop=args.r_stop,
    )
    result = find_fast_ground_state(params, cfg)
    _solve_report(result, Path(args.out), "shoot", args, started)
    return 0


def _cmd_verify(args) -> int:
    params = _load_params(args)
    report = run_suite(params, suite=args.suite, seed=args.seed)
    data = report.to_dict()
    data["seed"] = args.seed
    data["suite"] = args.suite
    data["provenance"] = _provenance(
        {"suite": args.suite, "seed": args.seed, "solver": report.solver_config}
    )
    if not args.no_timestamp:
        data["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _json_out(data, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolffkit",
        description="Weighted nonlinear potential operators, radial ground states, "
        "and decay-rate verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="regime report for a parameter tuple")
    _add_param_flags(sub)
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("eval", help="apply a potential operator to a profile")
    sub.add_argument("--op", choices=("wolff", "riesz"), required=True)
    _add_param_flags(sub)
    sub.add_argument("--source", required=True, help="input profile CSV (with JSON sidecar)")
    sub.add_argument("--config", help="JSON PotentialConfig")
    sub.add_argument("--out", required=True, help="output profile CSV path")
    sub.set_defaults(func=_cmd_eval)

    sub = subs.add_parser("solve", help="fixed-point solve of the coupled system")
    _add_param_flags(sub)
    sub.add_argument("--config", help="JSON SolveConfig")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--no-timestamp", action="store_true")
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("shoot", help="shooting ground state of the differential system")
    _add_param_flags(sub)
    sub.add_argument("--a", type=float, default=1.0, help="u(0)")
    sub.add_argument("--bracket", default="0.01,100", help="v(0) search bracket 'lo,hi'")
    sub.add_argument("--r-stop", type=float, default=1e4)
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--no-timestamp", action="store_true")
    sub.set_defaults(func=_cmd_shoot)

    sub = subs.add_parser("verify", help="run quantitative checks, emit report.json")
    _add_param_flags(sub)
    sub.add_argument("--suite", choices=SUITES, default="all")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")
    sub.add_argument("--no-timestamp", action="store_true")
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WolffkitError, ProfileFormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
