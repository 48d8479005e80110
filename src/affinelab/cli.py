"""Command line front end: surface literals in, JSON or CSV out.

Machine-readable output is written alone to stdout; anything meant for a
person (usage, error messages) goes to stderr.  Exit codes: 0 for a decided
or successful run, 1 for usage and domain errors, 2 when a decision comes
back unknown.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .arithmetic import DEFAULT_TOLERANCE, Tolerance, parse_complex
from .conjugacy import decide
from .errors import AffineLabError, UsageError
from .flow import classify, closed_geodesic_witness, flow, maximal_interval, trajectory
from .lift import run_verification, verification_passed
from .surfaces import parse_surface

__all__ = ["CliConfig", "main"]

_ENV_TOL = "AFFINE_LAB_TOL"


@dataclass(frozen=True)
class CliConfig:
    """Settings shared by the subcommands, resolved from flags and env."""

    tolerance: Tolerance = DEFAULT_TOLERANCE
    search_bound: int = 50
    seed: int = 0
    output_format: str = "json"


def _resolve_tolerance(flag_value) -> Tolerance:
    # flag beats environment beats the package default
    if flag_value is not None:
        return Tolerance(float(flag_value))
    env = os.environ.get(_ENV_TOL)
    if env is None:
        return DEFAULT_TOLERANCE
    try:
        return Tolerance(float(env))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{_ENV_TOL}={env!r} is not a usable tolerance") from exc


def _config(args) -> CliConfig:
    return CliConfig(
        tolerance=_resolve_tolerance(getattr(args, "tol", None)),
        search_bound=getattr(args, "bound", 50),
        seed=getattr(args, "seed", 0),
        output_format=getattr(args, "format", "json"),
    )


def _cjson(v) -> dict:
    return {"re": v.re, "im": v.im}


def _emit(payload) -> None:
    print(json.dumps(payload))


def _tangent(args):
    surface = parse_surface(args.surface)
    return surface.tangent(parse_complex(args.z), parse_complex(args.u))


def _cmd_flow(args, config: CliConfig) -> int:
    v = _tangent(args)
    if not math.isfinite(args.t):
        raise UsageError(f"flow time must be finite, got {args.t!r}")
    interval = maximal_interval(v, config.tolerance)
    payload = {
        "defined": interval.contains(args.t),
        "z": None,
        "u": None,
        "interval": interval.as_dict(),
    }
    if payload["defined"]:
        w = flow(v, args.t, config.tolerance)
        payload["z"] = _cjson(w.z)
        payload["u"] = _cjson(w.u)
    _emit(payload)
    return 0


def _cmd_interval(args, config: CliConfig) -> int:
    v = _tangent(args)
    cls = classify(v, config.tolerance)
    payload = maximal_interval(v, config.tolerance).as_dict()
    payload["direction"] = {"kind": cls.kind, "tau": cls.tau, "snapped": cls.snapped}
    _emit(payload)
    return 0


def _cmd_trajectory(args, config: CliConfig) -> int:
    rows = trajectory(_tangent(args), args.t0, args.t1, args.n, config.tolerance)
    if config.output_format == "csv":
        lines = ["t,re_z,im_z,re_u,im_u"]
        for t, w in rows:
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%.17g" % (t, w.z.re, w.z.im, w.u.re, w.u.im)
            )
        print("\n".join(lines))
    else:
        _emit([{"t": t, "z": _cjson(w.z), "u": _cjson(w.u)} for t, w in rows])
    return 0


def _cmd_conjugacy(args, config: CliConfig) -> int:
    s1 = parse_surface(args.surface1)
    s2 = parse_surface(args.surface2)
    verdict = decide(s1, s2, args.mode, config.tolerance, config.search_bound)
    _emit(verdict.to_json_dict())
    return 2 if verdict.status == "unknown" else 0


def _cmd_verify(args, config: CliConfig) -> int:
    s1 = parse_surface(args.surface1)
    s2 = parse_surface(args.surface2)
    verdict = decide(s1, s2, args.mode, config.tolerance, config.search_bound)
    payload = {"verdict": verdict.to_json_dict(), "report": None, "passed": None}
    if verdict.status != "conjugate":
        _emit(payload)
        return 2 if verdict.status == "unknown" else 0
    report = run_verification(
        s1,
        s2,
        witness=verdict.witness,
        samples=args.samples,
        seed=config.seed,
        tol=config.tolerance,
    )
    ok = verification_passed(report)
    payload["report"] = report.to_json_dict()
    payload["passed"] = ok
    _emit(payload)
    return 0 if ok else 1


def _cmd_closed_geodesics(args, config: CliConfig) -> int:
    witness = closed_geodesic_witness(parse_surface(args.surface), config.tolerance)
    payload = {"has_closed_geodesics": witness is not None, "witness": None}
    if witness is not None:
        payload["witness"] = {
            "translation": _cjson(witness.translation),
            "scale_factor": witness.scale_factor,
        }
    _emit(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinelab",
        description=(
            "Geodesic flows on affine cylinders and tori: flow evaluation, "
            "conjugacy decisions, numerical witness verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help=f"comparison tolerance (default 1e-9, or ${_ENV_TOL})",
        )

    p = sub.add_parser("flow", help="evaluate the flow at one time")
    p.add_argument("surface", help="plane | cylinder:<mu> | torus:<mu>,<nu>")
    p.add_argument("--z", required=True, help="base point literal")
    p.add_argument("--u", required=True, help="direction literal, nonzero")
    p.add_argument("--t", required=True, type=float, help="flow time")
    add_tol(p)
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("interval", help="maximal interval and direction class")
    p.add_argument("surface")
    p.add_argument("--z", required=True)
    p.add_argument("--u", required=True)
    add_tol(p)
    p.set_defaults(handler=_cmd_interval)

    p = sub.add_parser("trajectory", help="sample the flow over a time window")
    p.add_argument("surface")
    p.add_argument("--z", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--t0", required=True, type=float)
    p.add_argument("--t1", required=True, type=float)
    p.add_argument("--n", required=True, type=int, help="sample count, at least 2")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_tol(p)
    p.set_defaults(handler=_cmd_trajectory)

    p = sub.add_parser("conjugacy", help="decide conjugacy of two surfaces")
    p.add_argument("surface1")
    p.add_argument("surface2")
    p.add_argument("--mode", choices=("holomorphic", "topological"), required=True)
    p.add_argument("--bound", type=int, default=50, help="matrix search bound")
    add_tol(p)
    p.set_defaults(handler=_cmd_conjugacy)

    p = sub.add_parser("verify", help="decide, then verify the witness numerically")
    p.add_argument("surface1")
    p.add_argument("surface2")
    p.add_argument("--mode", choices=("holomorphic", "topological"), required=True)
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add_tol(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("closed-geodesics", help="closed geodesic existence")
    p.add_argument("surface")
    add_tol(p)
    p.set_defaults(handler=_cmd_closed_geodesics)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # undecided verdicts, so usage problems are folded into 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args, _config(args))
    except AffineLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
