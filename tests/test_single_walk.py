"""One walk of one SimState serves the certificate, the snapshots and the
logs.  The oracles are the separate runs it replaced: the data itself at
t = 0, ``advance`` on a fresh state for each later snapshot, and a standalone
``certify``."""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_problem
from shocklab import scenario, tracking
from shocklab.scenario import _profile_csv, preset, random_steps, run_scenario
from shocklab.singleshock import certify, run_until_single_front
from shocklab.tracking import advance, init_state

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


def bits(profile):
    """Exact identity of a profile, including the sign of zero."""
    return tuple(x.hex() for x in profile.positions), tuple(v.hex() for v in profile.values)


def oracle(fl, u0, t):
    return u0 if t == 0.0 else advance(init_state(fl, u0), t)


def snapshot_times(data, event_times, t_max):
    """Times on events, between them and past the horizon."""
    on_events = st.sampled_from(event_times) if event_times else st.just(0.0)
    any_time = st.floats(0.0, 2.0 * t_max, allow_nan=False, allow_subnormal=False)
    times = st.one_of(st.just(0.0), on_events, any_time)
    return data.draw(st.lists(times, max_size=8), label="snapshots")


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_walk_snapshots_equal_fresh_advance(seed, convex, data):
    fl, u0 = random_problem(seed, convex)
    t_max = 20.0
    probe = init_state(fl, u0)
    advance(probe, 2.0 * t_max)
    times = snapshot_times(data, [r.t for r in probe.event_log], t_max)

    s = init_state(fl, u0)
    s.snapshots = dict.fromkeys(times)
    edge = ((u0.values[0],) * 2, (u0.values[-1],) * 2)
    run_until_single_front(s, *edge, t_max)
    advance(s, max((t_max, *times)))
    for t in times:
        assert bits(s.snapshots[t]) == bits(oracle(fl, u0, t))
    assert [(r.t, r.x) for r in s.event_log] == [
        (r.t, r.x) for r in probe.event_log if r.t <= s.t
    ]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["burgers_shock", "neg_cubic_ii1", "double_well_i", "buckley_leverett"]),
       st.integers(0, 2**32 - 1), st.data())
def test_run_scenario_equals_separate_runs(tmp_path_factory, name, seed, data):
    base = preset(name)
    lo, hi = min(base.ubar.values), max(base.ubar.values)
    s = dataclasses.replace(base, ubar=random_steps(12, lo, hi, seed, base.A, base.B))
    u0 = s.initial_data()
    probe = init_state(s.flux, u0)
    advance(probe, s.t_max)
    s = dataclasses.replace(
        s, snapshots=tuple(snapshot_times(data, [r.t for r in probe.event_log], s.t_max)))

    out = tmp_path_factory.mktemp("run")
    report = run_scenario(s, out)
    alone = certify(s.flux, s.hypothesis, s.A, s.B, s.u_minus, s.ubar, s.u_plus, t_max=s.t_max)
    assert report["verdict"] == ("emerged" if alone.emerged else "not_emerged")
    assert (report["T0"], report["x0"], report["gamma"], report["T_tilde"]) == (
        alone.t0, alone.x0, alone.gamma, alone.t_tilde)
    assert (report["horizon"], report["final_speed"]) == (alone.horizon, alone.final_speed)
    assert report["r_samples"] == [{"t": t, "x": x} for t, x in alone.r_samples]
    for t in s.snapshots:
        want = _profile_csv(oracle(s.flux, u0, t))
        assert (out / f"{s.name}_profile_t{t:g}.csv").read_text() == want


def test_run_scenario_simulates_once(monkeypatch, tmp_path):
    counts = {"init_state": 0, "_process": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scenario, "init_state", counted(scenario.init_state, "init_state"))
    monkeypatch.setattr(tracking.SimState, "_process",
                        counted(tracking.SimState._process, "_process"))
    report = run_scenario(preset("burgers_shock"), tmp_path)
    assert report["verdict"] == "emerged"
    assert counts == {"init_state": 1, "_process": report["events"]}
    assert report["events"] > 0
