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

import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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
        # by time t no front is farther out than x + speed t; where that
        # overflows, a profile could place fronts at +-inf
        x = max(map(abs, self.initial_data().positions), default=0.0)
        speed = max(map(abs, self.flux.slopes))
        reach = lambda t: f"max |position| + max |flux slope| * t overflows at t = {t}"
        if not math.isfinite(x + speed * self.t_max):
            raise ValidationError("run.t_max", reach(self.t_max))
        files: dict[str, float] = {}
        for t in self.snapshots:
            if not (math.isfinite(t) and t >= 0):
                raise ValidationError("run.snapshots", f"need finite times >= 0, got {t}")
            if not math.isfinite(x + speed * t):
                raise ValidationError("run.snapshots", reach(t))
            file = _profile_name(n, t)
            if files.setdefault(file, t) != t:
                raise ValidationError("run.snapshots", f"{files[file]!r} and {t!r} share {file}")

    def initial_data(self) -> StepFunction:
        return assemble_initial_data(self.A, self.B, self.u_minus, self.ubar, self.u_plus)


MAX_RANDOM_STEPS = 10**6   # random middle data of a scenario file

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(v: int, h: list[int], mult: int = 0x931E8875) -> int:
    """SeedSequence's hash of a 32-bit word; steps the hash constant h[0]."""
    v ^= h[0]
    h[0] = h[0] * mult & _M32
    v = v * h[0] & _M32
    return v ^ v >> 16


def _pcg64(seed: int) -> Iterator[int]:
    """The 64-bit words of numpy's ``PCG64(seed)``: SeedSequence (NEP 19)
    hashes the seed's 32-bit words, low first, into a pool of four that seeds
    PCG64 XSL-RR (O'Neill, HMC-CS-2014-0905)."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = [0x43B0D7E5]
    # the hashed pool, then the words past four, which are mixed in after it
    pool = [_hashmix(w, h) for w in (words + [0, 0, 0])[:4]] + words[4:]
    for src in range(len(pool)):
        for dst in range(4):
            if dst != src:
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[src], h)) & _M32
                pool[dst] = r ^ r >> 16
    h = [0x8B51F9DD]
    out = [_hashmix(pool[i % 4], h, 0x58F38DED) for i in range(8)]
    s0, s1, s2, s3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    inc = (s2 << 64 | s3) << 1 | 1   # used mod 2**128, like the state
    state = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc
    while True:
        state = state * _PCG_MULT + inc & _M128
        v = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (v >> rot | v << 64 - rot) & _M64


def random_steps(k: int, lo: float, hi: float, seed: int, A: float, B: float) -> StepFunction:
    """k i.i.d. uniform values in [lo, hi) at equispaced jumps on (A, B).

    The values are numpy's ``default_rng(seed).uniform(lo, hi, k)`` bit for bit, seeds
    above 2**64 - 1 included: PCG64 via SeedSequence, each value lo + (hi - lo) u with
    u = (word >> 11) 2**-53, in Python ints and floats, so the same on every platform."""
    if not (isinstance(k, int) and k >= 1):
        raise ValidationError("steps", f"need an integer >= 1, got {k!r}")
    if not (isinstance(seed, int) and seed >= 0):
        raise ValidationError("seed", f"need an integer >= 0, got {seed!r}")
    words = _pcg64(seed)
    vals = [lo + (hi - lo) * ((next(words) >> 11) * 2**-53) for _ in range(k)]
    pos = [A + (B - A) * i / k for i in range(1, k)]
    return step(vals, pos)


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


def _parse_step(obj, field: str) -> StepFunction:
    if not isinstance(obj, dict):
        return constant(_number(obj, field))
    if "random" in obj:   # its jumps would fall in (A, B), where a tail is not read
        raise ValidationError(f"{field}.random", "only data.ubar takes a random recipe")
    return step(
        _numbers(_field(obj, "values", field), f"{field}.values"),
        _numbers(_field(obj, "positions", field), f"{field}.positions"),
    )


def _parse_ubar(obj, A: float, B: float) -> StepFunction:
    """data.ubar, which alone takes a random recipe; the recipe's jumps must
    be distinct and inside (A, B), which is checked before any value is drawn."""
    if not (isinstance(obj, dict) and "random" in obj):
        return _parse_step(obj, "data.ubar")
    where = "data.ubar.random"
    r = _object(obj["random"], where)
    k = _count(_field(r, "steps", where), f"{where}.steps", 1, MAX_RANDOM_STEPS)
    if not math.isfinite((B - A) * (k - 1)):
        raise ValidationError("data.B", f"(B - A) * {k - 1} overflows, with B - A = {B - A}")
    jumps = [A + (B - A) * i / k for i in range(1, k)]   # as random_steps places them
    if jumps and not all(x < y for x, y in zip((A, *jumps), (*jumps, B))):
        raise ValidationError("data.ubar" if A == B else "data.B",
                              f"[A, B] = [{A}, {B}] has no room for {k - 1} distinct jumps")
    lo = _number(_field(r, "lo", where), f"{where}.lo")
    hi = _number(_field(r, "hi", where), f"{where}.hi")
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ValidationError(f"{where}.hi", f"need lo <= hi, finite hi - lo; got [{lo}, {hi}]")
    seed = _count(_field(r, "seed", where), f"{where}.seed", 0, 2**64 - 1)
    return random_steps(k, lo, hi, seed, A, B)


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
    if not math.isfinite(B - A):
        raise ValidationError("data.B", f"need a finite span B - A, got {B - A}")
    fl = _parse_flux(_field(raw, "flux", "scenario"))
    u_minus = _parse_step(_field(data, "u_minus", "data", 0.0), "data.u_minus")
    u_plus = _parse_step(_field(data, "u_plus", "data", 0.0), "data.u_plus")
    ubar = _parse_ubar(_field(data, "ubar", "data", 0.0), A, B)
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
    if "t_max" not in run and not math.isfinite(100.0 * (B - A)):
        raise ValidationError("data.B", "the default horizon 100 (B - A) overflows; set run.t_max")
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
    nodes, f(2) lies 1.60e-15 above the a1 tangent (ROADMAP item 5, *Exact
    verdicts on the lattice*).
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

def _profile_name(name: str, t: float) -> str:
    return f"{name}_profile_t{t:g}.csv"


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


class _Texts(dict):
    """Number -> its text, each nonzero number formatted once.  Zeros are
    formatted on every lookup and never kept, since 0.0 == -0.0 and each
    keeps its sign."""

    def __missing__(self, v: float) -> str:
        s = _num(v)
        if v:
            self[v] = s
        return s


def _write_logs(state: SimState, out: Path, name: str) -> None:
    """Stream the event log, then the front table, line by line.

    Each NDJSON line equals ``json.dumps(rec.to_json(), sort_keys=True)``; a
    front's JSON object is made at its birth and reused at its death.  The
    table numbers fronts in birth order, the initial chain first, and gives
    each a row where it starts and a row where it ends: at its death record's
    t, or at state.t if it lives.

    A run repeats its numbers: states and speeds recur across a lattice's few
    fans, and a front starts at its birth record's t and x and ends at its
    death record's t and, mostly, x.  So each nonzero number is formatted
    once, through one memo.  End positions are only looked up in it, which
    keeps it to the states, speeds, start positions and event times and places.
    """
    text = _Texts()

    def pack(f) -> str:
        return '{"l": %s, "r": %s, "s": %s}' % (text[f.left], text[f.right], text[f.speed])

    with (out / f"{name}_events.ndjson").open("w") as ev:
        packed: dict = {}   # live front -> its JSON object
        for rec in state.event_log:
            dead = ", ".join([packed.pop(f, None) or pack(f) for f in rec.incoming])
            born = []
            for f in rec.outgoing:
                packed[f] = p = pack(f)
                born.append(p)
            ev.write(f'{{"in": [{dead}], "out": [{", ".join(born)}], '
                     f'"t": {text[rec.t]}, "x": {text[rec.x]}}}\n')

    died = {f: rec.t for rec in state.event_log for f in rec.incoming}   # live ones end at state.t
    fronts = itertools.chain(state.initial, *(rec.outgoing for rec in state.event_log))
    with (out / f"{name}_fronts.csv").open("w") as tb:
        tb.write("front_id,t,x\n")
        for i, f in enumerate(fronts):
            te = died.get(f, state.t)
            x = f.pos(te)
            tb.write(f"{i},{text[f.t0]},{text[f.x0]}\n{i},{text[te]},{text.get(x) or _num(x)}\n")


@contextmanager
def _scenario_walk():
    """Refuse a scenario's walk past the event cap as ``run.t_max``, the
    field that sets its length: no scenario file holds the walk's ``t_until``."""
    try:
        yield
    except ValidationError as e:
        if e.field != "t_until":
            raise
        raise ValidationError("run.t_max", str(e).partition(": ")[2]) from None


@_scenario_walk()
def run_scenario(s: Scenario, out_dir: str | Path) -> dict:
    """Execute one scenario; write profile CSVs, the event log, the front
    trajectory table, and the report JSON.  Returns the report dict.

    Report keys: verdict, kind, witnesses, T0, x0, gamma, T_tilde, horizon,
    r_samples, plus bookkeeping; wall-clock timing is isolated under "meta".
    """
    t_start = time.perf_counter()
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:   # e.g. a file where a directory should be
        raise ValidationError("out_dir", e) from None
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
        report.update(verdict.to_json())
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
        (out / _profile_name(s.name, t)).write_text(_profile_csv(state.snapshots[t]))

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
