"""The benchmark's workloads.

Each workload builds its inputs from a seed (``setup``), runs one timed
operation (``run``), and turns the operation's output into a summary that is
checked outside the timed region: against the recorded reference for the
seed (``compare``), and against invariants that hold for any seed
(``invariants``).  Every operation of a run repeats the same work.

shocklab is imported inside the methods, never at module level, so that the
first ``setup`` of a process pays the package import as users do.  Program
calls go through module attributes (``tracking.advance``), which is where the
tracer in ``tracer.py`` hooks in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

# Tolerances of acceptance criterion 10 (tests/test_acceptance.py): R-curve
# positions agree within 1e-8, monotonicity in the anchor holds within 2e-8.
R_POSITION_TOL = 1e-8
R_MONOTONE_TOL = 2e-8


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Defaults: exact comparison, no invariants, no extra counters."""

    def prepare(self, inp) -> None:
        """Untimed step before each operation."""

    def compare(self, summary, expected) -> list[str]:
        return [] if summary == expected else [f"output {summary} != recorded {expected}"]

    def invariants(self, inp, out, summary) -> list[str]:
        return []

    def counters(self, inp, out) -> dict[str, float]:
        """Per-operation counts for the traced run that no span carries."""
        return {}


class FrontTracking(Workload):
    """Burgers front tracking on k random jumps, advanced over time slices.

    Stresses tracking, riemann and flux.hull; bypasses laxoleinik,
    characteristics, legendre and artifact writing.
    """

    name = "front_tracking"
    SIZES = {"full": {"k": 2000}, "tiny": {"k": 40}}

    def setup(self, seed: int, size: str, workdir: Path):
        from shocklab import flux, scenario

        k = self.SIZES[size]["k"]
        fl = flux.approximate_pw_affine(flux.AnalyticFluxSpec("burgers", -3.0, 3.0, 0.05))
        u0 = scenario.random_steps(k, -1.0, 1.0, seed, 0.0, float(k))
        t_end = 10.0 * k
        # half-octave slices: live fronts fall roughly like t**-0.5, so each
        # slice sees a narrow band of live-front counts
        slices = [t_end * 2.0 ** (-j / 2) for j in range(30, -1, -1)]
        return {"flux": fl, "u0": u0, "slices": slices}

    def run(self, inp):
        from shocklab import tracking

        state = tracking.init_state(inp["flux"], inp["u0"])
        profiles = [tracking.advance(state, t) for t in inp["slices"]]
        return state, profiles

    def summarize(self, inp, out) -> dict:
        state, profiles = out
        log = "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in state.event_log)
        return {
            "events": sha256_text(log),
            "profile": sha256_text(json.dumps(profiles[-1].to_json())),
            "n_events": state.events_processed,
        }

    def invariants(self, inp, out, summary: dict) -> list[str]:
        _, profiles = out
        tvs = [inp["u0"].tv()] + [p.tv() for p in profiles]
        tol = 1e-9 * (1.0 + tvs[0])
        return [
            f"total variation rose from {a!r} to {b!r} at t={t!r}"
            for a, b, t in zip(tvs, tvs[1:], inp["slices"])
            if b > a + tol
        ]


class RCurves(Workload):
    """R+- curves by bisection over the variational solver: one operation
    samples both sides at every anchor.

    Stresses laxoleinik, legendre and characteristics; runs no front tracking.
    """

    name = "r_curves"
    ANCHORS = (0.125, 0.375, 0.625, 0.875)
    SIDES = ("plus", "minus")
    SIZES = {"full": {"times": [k / 10 for k in range(1, 41)]}, "tiny": {"times": [1.0, 4.0]}}

    def setup(self, seed: int, size: str, workdir: Path):
        from shocklab import flux, scenario

        fl = flux.approximate_pw_affine(
            flux.AnalyticFluxSpec("burgers", -3.0, 3.0, 0.05, corners=(0.0, 1.0))
        )
        u0 = scenario.random_steps(8, -0.5, 1.5, seed, 0.0, 1.0)
        return {"flux": fl, "u0": u0, "times": self.SIZES[size]["times"]}

    def run(self, inp):
        from shocklab import characteristics

        return {
            f"{alpha}/{side}": characteristics.r_curve(inp["flux"], inp["u0"], alpha, side, inp["times"])
            for alpha in self.ANCHORS
            for side in self.SIDES
        }

    def summarize(self, inp, out) -> dict[str, list[float]]:
        return {key: list(curve.positions) for key, curve in out.items()}

    def compare(self, summary, expected) -> list[str]:
        if summary.keys() != expected.keys():
            return [f"curves {sorted(summary)}, reference has {sorted(expected)}"]
        errs = []
        for key, positions in summary.items():
            if len(positions) != len(expected[key]):
                errs.append(f"{key}: {len(positions)} samples, reference has {len(expected[key])}")
                continue
            worst = max(abs(a - b) for a, b in zip(positions, expected[key]))
            if worst > R_POSITION_TOL:
                errs.append(f"{key}: position off the reference by {worst!r} > {R_POSITION_TOL}")
        return errs

    def invariants(self, inp, out, summary) -> list[str]:
        """R- <= R+ at every time, and each side nondecreasing in the anchor.

        Minimizers are taken up to the solver's tie tolerance, so on a shock
        that has absorbed the anchor the two curves straddle a tie zone of
        width about tolerance / jump, and R- may exceed R+ by that width.
        Such an overlap is accepted only when its midpoint is a tie whose
        minimizers straddle the anchor (y- < alpha < y+).
        """
        from shocklab import laxoleinik

        errs = []
        times = inp["times"]
        for alpha in self.ANCHORS:
            for t, lo, hi in zip(times, summary[f"{alpha}/minus"], summary[f"{alpha}/plus"]):
                if lo <= hi + R_POSITION_TOL:
                    continue
                cd = laxoleinik.value_function(inp["flux"], inp["u0"], 0.5 * (lo + hi), t)
                if not cd.y_minus < alpha < cd.y_plus:
                    errs.append(f"R-={lo!r} > R+={hi!r} at alpha={alpha}, t={t}, not a tie zone")
        for side in self.SIDES:
            for a, b in zip(self.ANCHORS, self.ANCHORS[1:]):
                for t, xa, xb in zip(times, summary[f"{a}/{side}"], summary[f"{b}/{side}"]):
                    if xa > xb + R_MONOTONE_TOL:
                        errs.append(f"R{side} not monotone: alpha {a} -> {xa!r}, {b} -> {xb!r} at t={t}")
        return errs


class Scenarios(Workload):
    """The CLI pipeline in-process: certify on the six presets, then solve
    the four certified presets with seeded random middle data.

    Stresses singleshock, scenario (repeated simulation, artifact writing)
    and front tracking on non-convex fluxes; bypasses laxoleinik.
    """

    name = "scenarios"
    # expected certify exit codes: 0 certified, 3 conditions violated
    CERTIFY = {
        "burgers_shock": 0,
        "neg_cubic_ii1": 0,
        "double_well_i": 0,
        "buckley_leverett": 0,
        "counterexample_1": 3,
        "counterexample_2": 3,
    }
    # middle-data range of each certified preset's own random_steps recipe
    SOLVE = {
        "burgers_shock": (0.0, 1.0),
        "neg_cubic_ii1": (-1.5, 2.5),
        "double_well_i": (-1.0, 1.0),
        "buckley_leverett": (0.0, 0.55),
    }
    SIZES = {"full": {"steps": 200}, "tiny": {"steps": 10}}

    def setup(self, seed: int, size: str, workdir: Path):
        from shocklab import scenario

        files = {}
        for name, (lo, hi) in self.SOLVE.items():
            s = scenario.preset(name)
            ubar = scenario.random_steps(self.SIZES[size]["steps"], lo, hi, seed, s.A, s.B)
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(scenario.emit_scenario(dataclasses.replace(s, ubar=ubar))))
            files[name] = path
        return {"files": files, "out": workdir / "out"}

    def prepare(self, inp) -> None:
        """Empty the output directory, so every operation writes the same files."""
        out = inp["out"]
        if out.exists():
            for f in out.iterdir():
                f.unlink()

    def run(self, inp):
        from shocklab import cli

        codes = {}
        printed = {}
        for name in self.CERTIFY:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                codes[f"certify/{name}"] = cli.main(["certify", "--preset", name])
            printed[f"certify/{name}"] = buf.getvalue() + err.getvalue()
        for name, path in inp["files"].items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes[f"solve/{name}"] = cli.main(["solve", "--scenario", str(path), "--out", str(inp["out"])])
            printed[f"solve/{name}"] = err.getvalue()
        return codes, printed

    def expected_codes(self) -> dict[str, int]:
        codes = {f"certify/{n}": c for n, c in self.CERTIFY.items()}
        codes.update({f"solve/{n}": 0 for n in self.SOLVE})
        return codes

    def summarize(self, inp, out) -> dict:
        codes, printed = out
        summary = {}
        for name in self.CERTIFY:
            summary[f"certify/{name}"] = sha256_text(printed[f"certify/{name}"])
        for name in self.SOLVE:
            report_path = inp["out"] / f"{name}_report.json"
            events_path = inp["out"] / f"{name}_events.ndjson"
            if not (report_path.is_file() and events_path.is_file()):
                summary[f"solve/{name}"] = None
                continue
            report = json.loads(report_path.read_text())
            report.pop("meta", None)
            summary[f"solve/{name}"] = {
                "report": sha256_text(json.dumps(report, sort_keys=True, indent=2)),
                "events": hashlib.sha256(events_path.read_bytes()).hexdigest(),
            }
        return summary

    def compare(self, summary: dict, expected: dict) -> list[str]:
        return [
            f"{k}: digest {summary.get(k)} != recorded {v}"
            for k, v in expected.items()
            if summary.get(k) != v
        ]

    def exit_code_mismatches(self, out) -> list[str]:
        codes, printed = out
        return [
            f"{k}: exit {codes.get(k)} != expected {want}; output: {printed.get(k, '')[-300:]!r}"
            for k, want in self.expected_codes().items()
            if codes.get(k) != want
        ]

    def invariants(self, inp, out, summary: dict) -> list[str]:
        errs = self.exit_code_mismatches(out)
        errs += [f"{k}: no report or event log written" for k, v in summary.items() if v is None]
        return errs

    def counters(self, inp, out) -> dict[str, float]:
        files = [f for f in inp["out"].iterdir() if f.is_file()]
        return {
            "artifact_files": len(files),
            "artifact_bytes": sum(f.stat().st_size for f in files),
            "exit_code_mismatches": len(self.exit_code_mismatches(out)),
        }


WORKLOADS = {w.name: w for w in (FrontTracking, RCurves, Scenarios)}
