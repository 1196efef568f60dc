"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps public shocklab functions from outside, by replacing the
module attribute through which callers reach them (``shocklab.tracking.
solve_riemann`` is the binding front tracking calls; ``shocklab.riemann.hull``
the one the Riemann solver calls).  Per-evaluation methods such as
``Flux.__call__`` are never wrapped.  Each call becomes one span
``[name, start, end, parent, op, attrs]`` kept in memory; the spans are
written out when the run ends, and every per-layer metric is derived from
them plus a few per-operation counters.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter

# live-front bands of the per-event cost profile: (metric suffix, lo, hi)
LIVE_BANDS = (("live_ge4096", 4096, math.inf), ("live_512-4095", 512, 4095), ("live_lt512", 0, 511))


def _state_probe(args):
    s = args[0]
    return len(s.fronts), s.events_processed


def _state_attrs(tracer, args, result, token):
    s = args[0]
    live0, events0 = token
    tracer.observe_live(max(live0, len(s.fronts)))
    return {"live0": live0, "events": s.events_processed - events0}


def _init_attrs(tracer, args, result, token):
    tracer.new_state(result)
    return None


def _riemann_attrs(tracer, args, result, token):
    fl, l, r = args[0], args[1], args[2]
    tracer.fluxes.setdefault(id(fl), fl)   # pin, so ids stay unique in the op
    tracer.pairs.add((id(fl), l, r))
    tracer.add("fan_fronts", len(result))
    return None


def _rcurve_attrs(tracer, args, result, token):
    tracer.add("samples", len(result.positions))
    return None


def _run_attrs(tracer, args, result, token):
    tracer.add("run_events_processed", sum(s.events_processed for s in tracer.run_states))
    tracer.add("run_report_events", result["events"])
    tracer.run_states = []
    return None


# (module, attribute, span name, before hook, after hook).  Every binding of a
# function the workloads reach is listed, since ``from .x import f`` gives
# each importing module its own attribute.
PATCHES = [
    ("shocklab.flux", "make_flux", "flux.make_flux", None, None),
    ("shocklab.legendre", "make_flux", "flux.make_flux", None, None),
    ("shocklab.scenario", "make_flux", "flux.make_flux", None, None),
    ("shocklab.cli", "make_flux", "flux.make_flux", None, None),
    ("shocklab.flux", "approximate_pw_affine", "flux.approximate_pw_affine", None, None),
    ("shocklab.scenario", "approximate_pw_affine", "flux.approximate_pw_affine", None, None),
    ("shocklab.riemann", "hull", "flux.hull", None, None),
    ("shocklab.tracking", "solve_riemann", "riemann.solve_riemann", None, _riemann_attrs),
    ("shocklab.tracking", "init_state", "tracking.init_state", None, _init_attrs),
    ("shocklab.scenario", "init_state", "tracking.init_state", None, _init_attrs),
    ("shocklab.singleshock", "init_state", "tracking.init_state", None, _init_attrs),
    ("shocklab.cli", "init_state", "tracking.init_state", None, _init_attrs),
    ("shocklab.tracking", "advance", "tracking.advance", _state_probe, _state_attrs),
    ("shocklab.scenario", "advance", "tracking.advance", _state_probe, _state_attrs),
    ("shocklab.singleshock", "run_until_single_front", "tracking.run_until_single_front",
     _state_probe, _state_attrs),
    ("shocklab.cli", "run_until_single_front", "tracking.run_until_single_front",
     _state_probe, _state_attrs),
    ("shocklab.laxoleinik", "legendre_dual", "legendre.legendre_dual", None, None),
    ("shocklab.characteristics", "legendre_dual", "legendre.legendre_dual", None, None),
    ("shocklab.characteristics", "value_function", "laxoleinik.value_function", None, None),
    ("shocklab.characteristics", "r_curve", "characteristics.r_curve", None, _rcurve_attrs),
    ("shocklab.scenario", "check_main_conditions", "singleshock.check_main_conditions", None, None),
    ("shocklab.singleshock", "check_main_conditions", "singleshock.check_main_conditions", None, None),
    ("shocklab.cli", "check_main_conditions", "singleshock.check_main_conditions", None, None),
    ("shocklab.scenario", "certify", "singleshock.certify", None, None),
    ("shocklab.cli", "certify", "singleshock.certify", None, None),
    ("shocklab.scenario", "run_scenario", "scenario.run_scenario", None, _run_attrs),
    ("shocklab.cli", "run_scenario", "scenario.run_scenario", None, _run_attrs),
    ("shocklab.cli", "load_scenario", "scenario.load_scenario", None, None),
    ("shocklab.cli", "preset", "scenario.preset", None, None),
    ("shocklab.cli", "main", "cli.main", None, None),
]


class Tracer:
    """Spans and counters of one traced run.  ``op`` names the operation
    that new spans belong to; the set-up is operation ``"setup"``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self.counts: dict = defaultdict(float)   # (op, key) -> value
        self.states: list = []                   # SimStates the current op created
        self.pairs: set = set()
        self.fluxes: dict = {}
        self.run_states: list = []
        self.peak_live = 0
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[self.op, key] += value

    def observe_live(self, n: int) -> None:
        self.peak_live = max(self.peak_live, n)

    def new_state(self, state) -> None:
        self.states.append(state)
        self.observe_live(len(state.fronts))
        if any(self.spans[i][0] == "scenario.run_scenario" for i in self._stack):
            self.run_states.append(state)
            self.add("run_init_states", 1)

    def begin_op(self, op) -> None:
        """Start recording operation ``op``; distinct Riemann pairs are per op."""
        self.finish_op()
        self.op = op

    def finish_op(self) -> None:
        """Fold the current operation's Riemann pairs and SimStates into counts."""
        self.add("distinct_pairs", len(self.pairs))
        self.add("events", sum(s.events_processed for s in self.states))
        self.add("multi_collisions", sum(
            1 for s in self.states for rec in s.event_log if len(rec.incoming) > 2))
        self.pairs, self.fluxes, self.states = set(), {}, []

    def _wrap(self, fn, name, before, after):
        def traced(*args, **kw):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            token = before(args) if before else None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after:
                span[5] = after(self, args, result, token)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, before, after in PATCHES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, before, after))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- reporting -----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as CSV, times in perf_counter seconds; live0 and events are
        set on advance and run_until_single_front spans."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op,live0,events\n")
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                a = attrs or {}
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{op},{a.get('live0', '')},{a.get('events', '')}\n")

    def self_times(self, ops) -> dict[str, list[float]]:
        """name -> [calls, total s, self s], summed over the given operations.

        A span's self time is its duration minus that of its direct
        children, which the nesting of calls keeps inside it."""
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
            if op in ops:
                row = out[name]
                row[0] += 1
                row[1] += t1 - t0
                row[2] += t1 - t0 - child[i]
        return dict(out)

    def layer_metrics(self, ops: list) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as means per traced operation unless noted."""
        self.finish_op()
        n = max(len(ops), 1)
        st = self.self_times(ops)
        setup = self.self_times(["setup"])

        def calls(name):
            return st.get(name, [0, 0.0, 0.0])[0]

        def secs(name):
            return st.get(name, [0, 0.0, 0.0])[1]

        def count(key):
            return sum(self.counts.get((op, key), 0.0) for op in ops)

        def ratio(a, b):
            return a / b if b else 0.0

        events = count("events")
        multi = count("multi_collisions")
        evolve_s = secs("tracking.advance") + secs("tracking.run_until_single_front")
        bands = {key: [0.0, 0] for key, _, _ in LIVE_BANDS}
        emerge_events = 0
        ops_set = set(ops)
        for name, t0, t1, _, op, attrs in self.spans:
            if op not in ops_set or not attrs:
                continue
            if name == "tracking.advance":
                for key, lo, hi in LIVE_BANDS:
                    if lo <= attrs["live0"] <= hi:
                        bands[key][0] += t1 - t0
                        bands[key][1] += attrs["events"]
            elif name == "tracking.run_until_single_front":
                emerge_events += attrs["events"]
        solves = calls("riemann.solve_riemann")
        distinct = count("distinct_pairs")
        samples = count("samples")
        runs = calls("scenario.run_scenario")
        values = calls("laxoleinik.value_function")
        m = {
            "tracking.events": (events / n, "count"),
            "tracking.multi_collisions": (multi / n, "count"),
            "tracking.peak_live_fronts": (self.peak_live, "count"),
            "tracking.init_s": (secs("tracking.init_state") / n, "s"),
            "tracking.advance_s": (secs("tracking.advance") / n, "s"),
            "tracking.events_per_s": (ratio(events, evolve_s), "1/s"),
        }
        for key, _, _ in LIVE_BANDS:
            m[f"tracking.us_per_event.{key}"] = (1e6 * ratio(*bands[key]), "us")
        m.update({
            "tracking.emergence_s": (secs("tracking.run_until_single_front") / n, "s"),
            "tracking.emergence.us_per_event": (
                1e6 * ratio(secs("tracking.run_until_single_front"), emerge_events), "us"),
            "riemann.solves": (solves / n, "count"),
            "riemann.solve_s": (secs("riemann.solve_riemann") / n, "s"),
            "riemann.distinct_pairs": (distinct / n, "count"),
            "riemann.repeat_ratio": (1.0 - ratio(distinct, solves) if solves else 0.0, "ratio"),
            "riemann.fronts_per_fan": (ratio(count("fan_fronts"), solves), "count"),
            "flux.hull.calls": (calls("flux.hull") / n, "count"),
            "flux.hull_s": (secs("flux.hull") / n, "s"),
            "flux.make_flux.calls": (calls("flux.make_flux") / n, "count"),
            # the flux sampling of one set-up, not of an operation
            "flux.approximate_s": (setup.get("flux.approximate_pw_affine", [0, 0.0])[1], "s"),
            "legendre.dual.calls": (calls("legendre.legendre_dual") / n, "count"),
            "legendre.dual_s": (secs("legendre.legendre_dual") / n, "s"),
            "laxoleinik.value.calls": (values / n, "count"),
            "laxoleinik.value_s": (secs("laxoleinik.value_function") / n, "s"),
            "laxoleinik.us_per_value": (1e6 * ratio(secs("laxoleinik.value_function"), values), "us"),
            "characteristics.samples": (samples / n, "count"),
            "characteristics.value_calls_per_sample": (ratio(values, samples), "count"),
            "characteristics.ms_per_sample": (1e3 * ratio(secs("characteristics.r_curve"), samples), "ms"),
            "singleshock.check_s": (secs("singleshock.check_main_conditions") / n, "s"),
            "singleshock.certify_s": (secs("singleshock.certify") / n, "s"),
            "singleshock.certify.calls": (calls("singleshock.certify") / n, "count"),
            "scenario.run_s": (secs("scenario.run_scenario") / n, "s"),
            "scenario.run.self_s": (st.get("scenario.run_scenario", [0, 0.0, 0.0])[2] / n, "s"),
            "scenario.init_state_per_run": (ratio(count("run_init_states"), runs), "count"),
            "scenario.useful_event_ratio": (
                ratio(count("run_report_events"), count("run_events_processed")), "ratio"),
            # per run_scenario call: what one solve leaves on disk
            "scenario.artifact_bytes": (ratio(count("artifact_bytes"), runs), "bytes"),
            "scenario.artifact_files": (ratio(count("artifact_files"), runs), "count"),
            "cli.main_s": (secs("cli.main") / n, "s"),
            "cli.exit_code_mismatches": (count("exit_code_mismatches") / n, "count"),
        })
        return m
