"""Scenario ingestion, presets, execution and artifact emission.

A scenario is a single JSON object naming a flux (inline table or analytic
recipe), the three-piece initial data around [A, B], optional hypothesis
parameters, and run controls.  Random middle data expands deterministically
from its seed, so identical files produce byte-identical reports (wall-clock
metadata is isolated in one sub-object).

Running a scenario simulates it once: the certificate, the snapshot profiles
and the logs all come from one walk of one SimState.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .flux import AnalyticFluxSpec, Flux, approximate_pw_affine, make_flux
from .singleshock import HypothesisParams, certify, check_main_conditions
from .step import StepFunction, assemble_initial_data, constant, step
from .tracking import SimState, advance, init_state


@dataclass(frozen=True)
class Scenario:
    name: str
    flux: Flux
    A: float
    B: float
    u_minus: StepFunction
    u_plus: StepFunction
    ubar: StepFunction
    hypothesis: HypothesisParams | None
    t_max: float
    snapshots: tuple[float, ...]

    def __post_init__(self):
        # artifacts are written to out / f"{name}_...", so a name must not leave out
        n = self.name
        if not isinstance(n, str) or n in ("", ".", "..") or any(c in n for c in "/\\\0"):
            raise ValidationError("name", f"need a plain file name, got {n!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValidationError("run.t_max", f"need a finite positive horizon, got {self.t_max}")
        for t in self.snapshots:
            if not (math.isfinite(t) and t >= 0):
                raise ValidationError("run.snapshots", f"need finite times >= 0, got {t}")

    def initial_data(self) -> StepFunction:
        return assemble_initial_data(self.A, self.B, self.u_minus, self.ubar, self.u_plus)


MAX_RANDOM_STEPS = 10**6   # random middle data of a scenario file


def random_steps(k: int, lo: float, hi: float, seed: int, A: float, B: float) -> StepFunction:
    """k i.i.d. uniform values at equispaced jumps on (A, B)."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lo, hi, k)
    pos = [A + (B - A) * i / k for i in range(1, k)]
    return step([float(v) for v in vals], pos)


# -- checked conversion of JSON fields -------------------------------------------

_REQUIRED = object()


def _field(obj: dict, key: str, where: str, default=_REQUIRED):
    """obj[key], or default when given; a missing required key is a
    ValidationError of ``where``."""
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ValidationError(where, f"missing key {key!r}")
    return default


def _object(v, field: str) -> dict:
    if not isinstance(v, dict):
        raise ValidationError(field, f"expected an object, got {v!r}")
    return v


def _number(v, field: str) -> float:
    """A finite float from a JSON number (not a bool, string or null)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(field, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(field, f"need a finite number, got {v!r}")
    return x


def _numbers(v, field: str) -> list[float]:
    if not isinstance(v, list):
        raise ValidationError(field, f"expected a list of numbers, got {v!r}")
    return [_number(x, f"{field}[{i}]") for i, x in enumerate(v)]


def _count(v, field: str, least: int, most: float = math.inf) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or not least <= v <= most:
        raise ValidationError(field, f"expected an integer in [{least}, {most}], got {v!r}")
    return v


def _parse_step(obj, field: str, A: float, B: float) -> StepFunction:
    if not isinstance(obj, dict):
        return constant(_number(obj, field))
    if "random" in obj:
        where = f"{field}.random"
        r = _object(obj["random"], where)
        return random_steps(
            _count(_field(r, "steps", where), f"{where}.steps", 1, MAX_RANDOM_STEPS),
            _number(_field(r, "lo", where), f"{where}.lo"),
            _number(_field(r, "hi", where), f"{where}.hi"),
            _count(_field(r, "seed", where), f"{where}.seed", 0, 2**64 - 1),
            A, B,
        )
    return step(
        _numbers(_field(obj, "values", field), f"{field}.values"),
        _numbers(_field(obj, "positions", field), f"{field}.positions"),
    )


def _parse_flux(obj) -> Flux:
    """The ``flux`` field; approximate_pw_affine rejects unknown kinds and params."""
    obj = _object(obj, "flux")
    if "breakpoints" in obj:
        return make_flux(
            _numbers(obj["breakpoints"], "flux.breakpoints"),
            _numbers(_field(obj, "values", "flux"), "flux.values"),
        )
    kind = _field(obj, "kind", "flux")
    if not isinstance(kind, str):
        raise ValidationError("flux.kind", f"expected a string, got {kind!r}")
    params = _object(_field(obj, "params", "flux", {}), "flux.params")
    spec = AnalyticFluxSpec(
        kind=kind,
        lo=_number(_field(obj, "lo", "flux"), "flux.lo"),
        hi=_number(_field(obj, "hi", "flux"), "flux.hi"),
        mesh=_number(_field(obj, "mesh", "flux"), "flux.mesh"),
        corners=tuple(_numbers(_field(obj, "corners", "flux", []), "flux.corners")),
        params=tuple((k, _number(v, f"flux.params.{k}")) for k, v in sorted(params.items())),
    )
    return approximate_pw_affine(spec)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    if "preset" in raw:
        extra = sorted(set(raw) - {"preset"})
        if extra:
            raise ValidationError("preset", f"a preset takes no other keys, got {extra}")
        return preset(raw["preset"])
    data = _object(_field(raw, "data", "scenario"), "data")
    A = _number(_field(data, "A", "data"), "data.A")
    B = _number(_field(data, "B", "data"), "data.B")
    if A > B:
        raise ValidationError("data.A", "need A <= B")
    fl = _parse_flux(_field(raw, "flux", "scenario"))
    u_minus = _parse_step(_field(data, "u_minus", "data", 0.0), "data.u_minus", A, B)
    u_plus = _parse_step(_field(data, "u_plus", "data", 0.0), "data.u_plus", A, B)
    ubar = _parse_step(_field(data, "ubar", "data", 0.0), "data.ubar", A, B)
    if A == B and ubar.positions:
        raise ValidationError("data.ubar", "A == B leaves no room for middle data")
    hp = None
    h = _field(raw, "hypothesis", "scenario", None)
    if h not in (None, {}):
        h = _object(h, "hypothesis")
        hp = HypothesisParams(*(
            _number(_field(h, k, "hypothesis"), f"hypothesis.{k}")
            for k in ("a1", "a2", "C", "D", "b2", "b1")
        ))
    run = _object(_field(raw, "run", "scenario", {}), "run")
    t_max = _number(_field(run, "t_max", "run", 100.0 * max(B - A, 1.0)), "run.t_max")
    snapshots = tuple(_numbers(_field(run, "snapshots", "run", []), "run.snapshots"))
    for v in (*u_minus.values, *u_plus.values, *ubar.values):
        if not fl.contains(v):
            raise ValidationError("data", f"value {v} outside flux working interval")
    return Scenario(_field(raw, "name", "scenario", name), fl, A, B, u_minus, u_plus, ubar, hp, t_max, snapshots)


def read_json(path: str | Path) -> dict:
    """The JSON object in the file at path; a ValidationError of the path
    when the file cannot be read or decoded, or holds anything but an object."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:   # ValueError: bad UTF-8, bad JSON, over-long integers
        raise ValidationError(str(path), e)
    if not isinstance(raw, dict):
        raise ValidationError(str(path), f"expected a JSON object, got {type(raw).__name__}")
    return raw


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path), name=Path(path).stem)


def emit_scenario(s: Scenario) -> dict:
    """Canonical JSON form; load(emit(s)) reproduces s exactly."""
    out = {
        "name": s.name,
        "flux": s.flux.to_json(),
        "data": {
            "A": s.A,
            "B": s.B,
            "u_minus": s.u_minus.to_json(),
            "u_plus": s.u_plus.to_json(),
            "ubar": s.ubar.to_json(),
        },
        "run": {"t_max": s.t_max, "snapshots": list(s.snapshots)},
    }
    if s.hypothesis is not None:
        hp = s.hypothesis
        out["hypothesis"] = {
            "a1": hp.a1, "a2": hp.a2, "C": hp.C, "D": hp.D, "b2": hp.b2, "b1": hp.b1,
        }
    return out


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# Each preset is the object a scenario file holds.  counterexample_2's flux is
# a breakpoint table that preset() builds on request, not at import.
_C = math.sqrt(2.0 / 3.0)
PRESETS = {
    "burgers_shock": {
        "flux": {"kind": "burgers", "lo": -3.0, "hi": 3.0, "mesh": 0.05,
                 "corners": [-1.0, 0.0, 1.0, 2.0]},
        "data": {"A": 0.0, "B": 1.0, "u_minus": 1.0, "u_plus": 0.0,
                 "ubar": {"random": {"steps": 8, "lo": 0.0, "hi": 1.0, "seed": 11}}},
        "hypothesis": {"a1": 0.0, "a2": 0.0, "C": 0.25, "D": 0.75, "b2": 1.0, "b1": 1.0},
        "run": {"t_max": 50.0, "snapshots": [0.0, 1.0, 5.0, 20.0]},
    },
    "neg_cubic_ii1": {
        "flux": {"kind": "neg_cubic", "lo": -3.0, "hi": 3.0, "mesh": 0.05,
                 "corners": [-1.5, -1.0, -0.5, 0.0, 2.0, 2.5]},
        "data": {"A": 0.0, "B": 1.0, "u_minus": -0.5, "u_plus": 2.0,
                 "ubar": {"random": {"steps": 6, "lo": -1.5, "hi": 2.5, "seed": 23}}},
        "hypothesis": {"a1": -0.5, "a2": -0.5, "C": 0.0, "D": 0.0, "b2": 2.0, "b1": 2.0},
        "run": {"t_max": 50.0, "snapshots": [0.0, 1.0, 5.0]},
    },
    "double_well_i": {
        "flux": {"kind": "double_well", "lo": -3.2, "hi": 3.2, "mesh": 0.05,
                 "corners": [-2.6, -2.5, -2.4, -2.0, -_C, 0.0, _C, 2.0, 2.4, 2.5, 2.6]},
        "data": {"A": 0.0, "B": 1.0, "u_minus": 2.5, "u_plus": -2.5,
                 "ubar": {"random": {"steps": 6, "lo": -1.0, "hi": 1.0, "seed": 37}}},
        "hypothesis": {"a1": -2.6, "a2": -2.5, "C": -_C, "D": _C, "b2": 2.5, "b1": 2.6},
        "run": {"t_max": 60.0, "snapshots": [0.0, 1.0, 5.0]},
    },
    "buckley_leverett": {
        "flux": {"kind": "buckley_leverett", "lo": -0.2, "hi": 1.2, "mesh": 0.01,
                 "corners": [0.0, 0.45, 0.5, 0.52, 0.55, 1.0], "params": {"r": 1.0}},
        "data": {"A": 0.0, "B": 1.0, "u_minus": 0.55, "u_plus": 0.0,
                 "ubar": {"random": {"steps": 5, "lo": 0.0, "hi": 0.55, "seed": 5}}},
        "hypothesis": {"a1": 0.0, "a2": 0.0, "C": 0.45, "D": 0.52, "b2": 0.55, "b1": 0.55},
        "run": {"t_max": 60.0, "snapshots": [0.0, 2.0, 10.0]},
    },
    "counterexample_1": {
        "flux": {"kind": "double_well", "lo": -3.0, "hi": 3.0, "mesh": 0.05,
                 "corners": [-2.0, -_C, 0.0, _C, 2.0]},
        "data": {"A": 0.0, "B": 1.0, "u_minus": 2.0, "u_plus": -2.0, "ubar": 0.0},
        "hypothesis": {"a1": -2.0, "a2": -2.0, "C": -_C, "D": _C, "b2": 2.0, "b1": 2.0},
        "run": {"t_max": 100.0, "snapshots": [0.0, 25.0, 50.0, 100.0]},
    },
    "counterexample_2": {
        "data": {"A": 0.0, "B": 1.0, "u_minus": -1.5, "u_plus": 2.0, "ubar": -1.0},
        # a1 = -0.9, the right end of the bridging segment of _counterexample_2_flux
        "hypothesis": {"a1": -0.9, "a2": -0.9, "C": 0.0, "D": 0.0, "b2": 2.0, "b1": 2.0},
        "run": {"t_max": 100.0, "snapshots": [0.0, 25.0, 50.0, 100.0]},
    },
}


def _counterexample_2_flux() -> Flux:
    """neg_cubic mesh with the nodes inside (-1.1, -0.9) removed.

    The bridging segment is meant to lie on the chord from its right end a1 to
    (2, f(2)).  It does not on the lattice: in exact arithmetic over the stored
    nodes, f(2) lies 1.60e-15 above the a1 tangent (ROADMAP item 2).
    """
    spec = AnalyticFluxSpec(
        "neg_cubic", -3.0, 3.0, 0.05, corners=(-1.5, -1.1, -0.9, 0.0, 2.0)
    )
    base = approximate_pw_affine(spec)
    keep = [(x, v) for x, v in zip(base.breakpoints, base.values) if not -1.1 < x < -0.9]
    return make_flux([x for x, _ in keep], [v for _, v in keep])


def preset(name: str) -> Scenario:
    """The preset ``name``, parsed and checked like a scenario file."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ValidationError("preset", f"unknown preset {name!r} (have {sorted(PRESETS)})")
    obj = PRESETS[name]
    if "flux" not in obj:
        obj = {**obj, "flux": _counterexample_2_flux().to_json()}
    return scenario_from_dict(obj, name)


# ---------------------------------------------------------------------------
# execution and artifacts
# ---------------------------------------------------------------------------

def _profile_csv(profile: StepFunction) -> str:
    lines = ["x_left,x_right,value"]
    for lo, hi, v in profile.pieces():
        l = "" if math.isinf(lo) else repr(lo)
        r = "" if math.isinf(hi) else repr(hi)
        lines.append(f"{l},{r},{v!r}")
    return "\n".join(lines) + "\n"


def _num(v: float) -> str:
    """v as json.dumps writes it (repr would name np.float64); JSON has no inf or NaN."""
    if not math.isfinite(v):
        raise ValidationError("event log", f"need finite numbers, got {v}")
    return float.__repr__(v)


def _write_logs(state: SimState, out: Path, name: str) -> None:
    """Stream the event log and the front table in one walk of ``state.event_log``.

    Each NDJSON line equals ``json.dumps(rec.to_json(), sort_keys=True)``.  Fids
    are dense: the initial fronts first, then the born ones in log order.  So
    once each front's end time is known, the table rows of the fronts born at a
    record follow that record in fid order and reuse its printed t and x.  A
    front's JSON object is made at its birth and reused at its death.
    """
    log = state.event_log
    live = state.fronts
    n = len(live) + sum(len(rec.incoming) for rec in log)
    fronts, ends = [None] * n, [state.t] * n
    for f in live:
        fronts[f.fid] = f
    for rec in log:
        for f in rec.incoming:
            fronts[f.fid], ends[f.fid] = f, rec.t
    packed: dict = {}   # fid of a live front -> its JSON object

    def pack(f) -> str:
        return '{"l": %s, "r": %s, "s": %s}' % (_num(f.left), _num(f.right), _num(f.speed))

    with (out / f"{name}_events.ndjson").open("w") as ev, (out / f"{name}_fronts.csv").open("w") as tb:
        tb.write("front_id,t,x\n")
        for f in fronts[:n - sum(len(rec.outgoing) for rec in log)]:   # the initial fronts
            te = ends[f.fid]
            tb.write(f"{f.fid},{f.t0!r},{f.x0!r}\n{f.fid},{te!r},{f.pos(te)!r}\n")
        for rec in log:
            t, x = _num(rec.t), _num(rec.x)
            dead = ", ".join([packed.pop(f.fid, None) or pack(f) for f in rec.incoming])
            born = []
            for f in rec.outgoing:
                packed[f.fid] = p = pack(f)
                born.append(p)
                te = ends[f.fid]
                tb.write(f"{f.fid},{t},{x}\n{f.fid},{te!r},{f.pos(te)!r}\n")
            ev.write(f'{{"in": [{dead}], "out": [{", ".join(born)}], "t": {t}, "x": {x}}}\n')


def run_scenario(s: Scenario, out_dir: str | Path) -> dict:
    """Execute one scenario; write profile CSVs, the event log, the front
    trajectory table, and the report JSON.  Returns the report dict.

    Report keys: verdict, kind, witnesses, T0, x0, gamma, T_tilde, horizon,
    r_samples, plus bookkeeping; wall-clock timing is isolated under "meta".
    """
    t_start = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = init_state(s.flux, s.initial_data())
    state.snapshots = dict.fromkeys(s.snapshots)   # filled in by the walk
    laps = {"init": time.perf_counter()}   # phase -> clock at its end

    report: dict = {
        "name": s.name,
        "verdict": "unchecked",
        "kind": None,
        "witnesses": [],
        "T0": None,
        "x0": None,
        "gamma": None,
        "T_tilde": None,
        "horizon": s.t_max,
        "r_samples": [],
    }
    if s.hypothesis is not None:
        verdict = check_main_conditions(s.flux, s.hypothesis)
        laps["check"] = time.perf_counter()
        report["kind"] = verdict.kind.value
        report["witnesses"] = [w.to_json() for w in verdict.witnesses]
        if verdict.satisfied:
            emergence = certify(
                s.flux, s.hypothesis, s.A, s.B, s.u_minus, s.ubar, s.u_plus,
                t_max=s.t_max, verdict=verdict, state=state,
            )
            laps["certify"] = time.perf_counter()
            report["verdict"] = "emerged" if emergence.emerged else "not_emerged"
            em = emergence.to_json()
            for key in ("T0", "x0", "gamma", "T_tilde", "horizon", "r_samples", "final_speed"):
                report[key] = em[key]
        else:
            report["verdict"] = "violated"

    # finish the walk; certify, when it ran, stopped it at t_max
    advance(state, max((s.t_max, *s.snapshots)))
    laps["finish"] = time.perf_counter()
    for t in sorted(s.snapshots):
        (out / f"{s.name}_profile_t{t:g}.csv").write_text(_profile_csv(state.snapshots[t]))

    _write_logs(state, out, s.name)
    laps["artifacts"] = time.perf_counter()

    report["events"] = state.events_processed
    phases, last = {}, t_start
    for key in ("init", "check", "certify", "finish", "artifacts"):
        end = laps.get(key, last)   # a skipped phase takes no time
        phases[key], last = end - last, end
    report["meta"] = {"wall_s": last - t_start, "phases_s": phases}
    (out / f"{s.name}_report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    return report


def run_batch(paths: list[str | Path], out_dir: str | Path) -> list[dict]:
    """Run scenario files in order; their names must differ, since a
    scenario's artifacts are named after it."""
    scenarios = [load_scenario(p) for p in paths]
    shared = sorted(n for n, k in Counter(s.name for s in scenarios).items() if k > 1)
    if shared:
        raise ValidationError("name", f"batch scenarios share names {shared}")
    return [run_scenario(s, out_dir) for s in scenarios]
