"""Command-line front end.

Subcommands: solve, riemann, dual, laxoleinik, rcurve, check, certify, batch.
Exit codes: 0 satisfied/emerged, 2 configuration error, 3 conditions
violated, 4 not emerged within the horizon.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .errors import ShockLabError, ValidationError
from .flux import make_flux
from .riemann import solve_riemann
from .scenario import (
    PRESETS, _field, _numbers, _scenario_walk, load_scenario, preset, read_json, run_batch,
    run_scenario,
)
from .singleshock import certify, check_main_conditions, run_until_single_front
from .step import StepFunction, step
from .tracking import init_state
# dual, laxoleinik and rcurve import the variational solvers as they run; the last two need numpy


def _load_flux(path: str):
    raw = read_json(path)
    return make_flux(*(_numbers(_field(raw, k, path), k) for k in ("breakpoints", "values")))


def _load_step(path: str) -> StepFunction:
    raw = read_json(path)
    return step(*(_numbers(_field(raw, k, path), k) for k in ("values", "positions")))


def _scenario_from_args(args) -> object:
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    raise ValidationError("--scenario", "need --scenario PATH or --preset NAME")


def _floats(text: str) -> list[float]:
    try:
        out = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        out = []
    if not out:
        raise ValidationError("--t", f"expected comma-separated numbers, got {text!r}")
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse_args call starts
    from a fresh namespace, so calls share no state."""
    ap = argparse.ArgumentParser(prog="shocklab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_scenario_flags(p):
        p.add_argument("--scenario", help="scenario JSON path")
        p.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")

    p = sub.add_parser("solve", help="run a scenario and write its artifacts")
    add_scenario_flags(p)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--t", help="extra snapshot times, comma separated")

    p = sub.add_parser("riemann", help="print the fan of a single jump")
    p.add_argument("--flux", required=True)
    p.add_argument("--left", type=float, required=True)
    p.add_argument("--right", type=float, required=True)

    p = sub.add_parser("dual", help="print the convex conjugate of a flux")
    p.add_argument("--flux", required=True)

    p = sub.add_parser("laxoleinik", help="value function query")
    p.add_argument("--flux", required=True)
    p.add_argument("--data", required=True, help="StepFunction JSON path")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("rcurve", help="sample a forward characteristic, CSV t,R")
    p.add_argument("--flux", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--side", choices=("plus", "minus"), default="plus")
    p.add_argument("--t", required=True, help="sample times, comma separated")

    p = sub.add_parser("check", help="evaluate the emergence conditions")
    add_scenario_flags(p)

    p = sub.add_parser("certify", help="conditions plus empirical emergence")
    add_scenario_flags(p)
    p.add_argument(
        "--explore",
        action="store_true",
        help="on a violated verdict, still run the emergence detector with "
        "ranges taken from the data tails (no certificate is claimed)",
    )

    p = sub.add_parser("batch", help="run many scenario files")
    p.add_argument("scenarios", nargs="+")
    p.add_argument("--out", default="out")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ShockLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "riemann":
        fan = solve_riemann(_load_flux(args.flux), args.left, args.right)
        for f in fan:
            print(json.dumps(f.to_json(), sort_keys=True))
        return 0

    if args.cmd == "dual":
        from .legendre import legendre_dual
        print(json.dumps(legendre_dual(_load_flux(args.flux)).to_json(), sort_keys=True))
        return 0

    if args.cmd == "laxoleinik":
        from .laxoleinik import value_function
        cd = value_function(_load_flux(args.flux), _load_step(args.data), args.x, args.t)
        print(json.dumps(cd.to_json(), sort_keys=True))
        return 0

    if args.cmd == "rcurve":
        from .characteristics import r_curve
        curve = r_curve(
            _load_flux(args.flux), _load_step(args.data), args.alpha, args.side, _floats(args.t)
        )
        print("t,R")
        for t, x in curve:
            print(f"{t!r},{x!r}")
        return 0

    if args.cmd == "solve":
        s = _scenario_from_args(args)
        if getattr(args, "t", None):
            extra = tuple(sorted(set(s.snapshots) | set(_floats(args.t))))
            s = dataclasses.replace(s, snapshots=extra)
        run_scenario(s, args.out)
        return 0

    if args.cmd in ("check", "certify"):
        s = _scenario_from_args(args)
        if s.hypothesis is None:
            raise ValidationError("hypothesis", "scenario has no hypothesis block")
        with _scenario_walk():
            verdict = check_main_conditions(s.flux, s.hypothesis)
            if args.cmd == "check" or not verdict.satisfied:
                out = verdict.to_json()
                if args.cmd == "certify" and args.explore:
                    # no certificate: just watch whether the data tails separate
                    state = init_state(s.flux, s.initial_data())
                    tails = [(tail.lo, tail.hi) for tail in (s.u_minus, s.u_plus)]
                    probe = run_until_single_front(state, *tails, s.t_max)
                    out["exploration"] = probe.to_json()
                print(json.dumps(out, sort_keys=True, indent=2))
                return 0 if verdict.satisfied else 3
            report = certify(
                s.flux, s.hypothesis, s.A, s.B, s.u_minus, s.ubar, s.u_plus,
                t_max=s.t_max, verdict=verdict,
            )
            print(json.dumps(report.to_json(), sort_keys=True, indent=2))
            return 0 if report.emerged else 4

    if args.cmd == "batch":
        run_batch(args.scenarios, args.out)
        return 0

    raise ValidationError("command", f"unknown command {args.cmd}")


if __name__ == "__main__":
    sys.exit(main())
