"""Checks that used to be bare asserts raise typed errors, and malformed CLI
inputs end with exit code 2 instead of a traceback."""

import json
import math

import pytest

from conftest import refused
from shocklab import singleshock, tracking
from shocklab.characteristics import r_curve
from shocklab.cli import _load_step
from shocklab.cli import main as cli_main
from shocklab.flux import hull, make_flux
from shocklab.laxoleinik import solve_pointwise, value_function
from shocklab.riemann import solve_riemann
from shocklab.scenario import emit_scenario, preset, run_scenario, scenario_from_dict
from shocklab.step import constant, step
from shocklab.singleshock import EmergenceReport, check_main_conditions, certify, ranges_for
from shocklab.tracking import SimState


def _fake_bound(monkeypatch, t_tilde):
    monkeypatch.setattr(singleshock, "speed_gap_bound", lambda *a: t_tilde)


def test_certify_t0_above_bound_exits_2(monkeypatch, capsys):
    _fake_bound(monkeypatch, 1e-6)
    assert cli_main(["certify", "--preset", "burgers_shock"]) == 2
    assert "exceeds the analytic bound" in capsys.readouterr().err


def test_certify_no_emergence_within_bound_exits_2(monkeypatch, capsys):
    _fake_bound(monkeypatch, 1.0)
    monkeypatch.setattr(
        singleshock, "run_until_single_front",
        lambda s, lr, rr, t_max: EmergenceReport(False, lr, rr, t_max),
    )
    assert cli_main(["certify", "--preset", "burgers_shock"]) == 2
    assert "no emergence" in capsys.readouterr().err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FLUX_JSON = json.dumps({"breakpoints": [-2, 0, 2], "values": [2, 0, 2]})
BAD_FILES = {
    "missing": None,
    "not_json": "{breakpoints: [",
    "not_utf8": b"\xff\xfe\x00",
    "no_values": json.dumps({"breakpoints": [-2, 0, 2], "positions": [0.0]}),
    "not_an_object": json.dumps([[-2, 0, 2], [2, 0, 2]]),
    "text_entries": json.dumps({"breakpoints": ["a", 0, 2], "values": [2, "b", 2],
                                "positions": ["a"]}),
    "nan_entries": json.dumps({"breakpoints": [-2, float("nan"), 2], "values": [2, 0, 2],
                               "positions": [float("nan")]}),
    # past the interpreter's limit on integer digits, json.loads raises ValueError
    "huge_integer": '{"breakpoints": [-2, 0, 2], "values": [2, 0, %s], "positions": [0]}'
                    % ("1" * 5000),
}


def _bad(tmp_path, case):
    path = tmp_path / f"{case}.json"
    content = BAD_FILES[case]
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    return str(path)


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_cli_bad_flux_file_exits_2(tmp_path, capsys, case):
    assert cli_main(["dual", "--flux", _bad(tmp_path, case)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_cli_bad_data_file_exits_2(tmp_path, capsys, case):
    rc = cli_main(["laxoleinik", "--flux", _write(tmp_path, "f.json", FLUX_JSON),
                   "--data", _bad(tmp_path, case), "--x", "0.0", "--t", "1.0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_load_step_normalizes(tmp_path):
    raw = {"positions": [0, 1, 2], "values": [1, 1, 0.5, 0.5]}
    loaded = _load_step(_write(tmp_path, "d.json", json.dumps(raw)))
    assert loaded == step([1.0, 0.5], [1.0])
    assert all(type(v) is float for v in loaded.values + loaded.positions)


SCENARIO = {
    "flux": {"kind": "burgers", "lo": -2.0, "hi": 2.0, "mesh": 0.5},
    "data": {"A": 0.0, "B": 1.0, "u_minus": 1.0, "u_plus": 0.0, "ubar": 0.5},
}
BAD_SCENARIOS = {
    "not_utf8": b"\xff\xfe\x00",
    "not_an_object": json.dumps([SCENARIO]),
    "preset_with_run": json.dumps({"preset": "burgers_shock", "run": {"t_max": 1}}),
    "negative_snapshot": json.dumps(SCENARIO | {"run": {"snapshots": [-1]}}),
    "nan_snapshot": json.dumps(SCENARIO | {"run": {"snapshots": [float("nan")]}}),
    "zero_horizon": json.dumps(SCENARIO | {"run": {"t_max": 0}}),
    "infinite_horizon": json.dumps(SCENARIO | {"run": {"t_max": float("inf")}}),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_cli_bad_scenario_file_exits_2(tmp_path, capsys, case):
    path = tmp_path / f"{case}.json"
    content = BAD_SCENARIOS[case]
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert cli_main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case == "preset_with_run":
        assert "'run'" in err
    assert not (tmp_path / "out").exists()


def test_cli_negative_snapshot_option_exits_2(tmp_path, capsys):
    rc = cli_main(["solve", "--preset", "burgers_shock", "--out", str(tmp_path), "--t=-2"])
    assert rc == 2
    assert "run.snapshots" in capsys.readouterr().err


DATA_JSON = json.dumps({"positions": [0.0], "values": [1.0, 0.0]})
BAD_QUERIES = {
    "rcurve_zero_time": ["rcurve", "--alpha", "0", "--t", "0"],
    "rcurve_negative_time": ["rcurve", "--alpha", "0", "--t", "1,-2"],
    "rcurve_text_time": ["rcurve", "--alpha", "0", "--t", "abc"],
    "rcurve_nan_time": ["rcurve", "--alpha", "0", "--t", "nan"],
    "rcurve_inf_time": ["rcurve", "--alpha", "0", "--t", "inf"],
    "rcurve_nan_anchor": ["rcurve", "--alpha", "nan", "--t", "1"],
    "laxoleinik_nan_time": ["laxoleinik", "--x", "0", "--t", "nan"],
    "laxoleinik_zero_time": ["laxoleinik", "--x", "0", "--t", "0"],
    "laxoleinik_inf_position": ["laxoleinik", "--x", "inf", "--t", "1"],
    # x - t p overflows: the candidate window is not finite
    "laxoleinik_overflowing_window": ["laxoleinik", "--x", "1e308", "--t", "1e308"],
    "rcurve_no_time": ["rcurve", "--alpha", "0", "--t", ""],
    "rcurve_only_separators": ["rcurve", "--alpha", "0", "--t", " , "],
    # 1e-13 past the flux's right end: states are compared with it exactly
    "riemann_state_past_hi": ["riemann", "--left", "2.0000000000001", "--right", "0"],
}


@pytest.mark.parametrize("case", sorted(BAD_QUERIES))
def test_cli_bad_query_exits_2(tmp_path, capsys, case):
    files = ["--flux", _write(tmp_path, "f.json", FLUX_JSON)]
    if BAD_QUERIES[case][0] != "riemann":
        files += ["--data", _write(tmp_path, "d.json", DATA_JSON)]
    assert cli_main(BAD_QUERIES[case] + files) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# numpy's overflow warnings become errors: the window is refused before any
# array arithmetic on it
@pytest.mark.filterwarnings("error")
def test_r_curve_refuses_an_overflowing_window():
    fl = make_flux([-2, 0, 2], [2, 0, 2])
    with refused("t") as exc:
        r_curve(fl, step([1.0, 0.0], [0.0]), 0.0, "plus", [1.0, 1e308])
    assert str(exc.value).startswith("t: candidate window") and "x=" not in str(exc.value)


@pytest.mark.filterwarnings("error")
def test_cli_rcurve_overflowing_window_prints_only_the_error(tmp_path, capsys):
    files = ["--flux", _write(tmp_path, "f.json", FLUX_JSON),
             "--data", _write(tmp_path, "d.json", DATA_JSON)]
    assert cli_main(["rcurve", "--alpha", "0", "--t", "1e308"] + files) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: t: candidate window") and err.count("\n") == 1


# the candidate window of (x, t) = (8e307, 1e307) is finite, but v0(y) and
# t f*((x - y)/t) overflow on it and leave no finite minimum
V3 = {"breakpoints": [-3, 0, 3], "values": [3, 0, 3]}
DOWN = {"positions": [0.0], "values": [3.0, -3.0]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda fl, u0: value_function(fl, u0, 8e307, 1e307),
    lambda fl, u0: r_curve(fl, u0, 0.0, "plus", [1.0, 8e307]),
], ids=["value_function", "r_curve"])
def test_overflowing_objective_is_refused(call):
    u0 = step(DOWN["values"], DOWN["positions"])
    with refused("t") as err:
        call(make_flux(V3["breakpoints"], V3["values"]), u0)
    assert "objective overflows" in str(err.value)


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_objective_prints_only_the_error(tmp_path, capsys):
    files = ["--flux", _write(tmp_path, "f.json", json.dumps(V3)),
             "--data", _write(tmp_path, "d.json", json.dumps(DOWN))]
    assert cli_main(["laxoleinik", "--x", "8e307", "--t", "1e307"] + files) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: t: objective overflows") and err.count("\n") == 1


# constant data 5 on a flux over [-2, 2]: f'(5) does not exist, so the
# variational layer refuses the data as init_state does
OUTSIDE = {
    "value_function": lambda fl, u0: value_function(fl, u0, 0.0, 1.0),
    "solve_pointwise": lambda fl, u0: solve_pointwise(fl, u0, 0.0, 1.0),
    "r_curve": lambda fl, u0: r_curve(fl, u0, 0.0, "plus", [1.0]),
}


@pytest.mark.parametrize("call", sorted(OUTSIDE))
def test_variational_data_outside_flux_raises(call):
    fl = make_flux([-2, 0, 2], [2, 0, 2])
    with refused("u0"):
        OUTSIDE[call](fl, constant(5.0))


@pytest.mark.parametrize("query", [["laxoleinik", "--x", "0", "--t", "1"],
                                   ["rcurve", "--alpha", "0", "--t", "1"]],
                         ids=["laxoleinik", "rcurve"])
def test_cli_data_outside_flux_exits_2(tmp_path, capsys, query):
    files = ["--flux", _write(tmp_path, "f.json", FLUX_JSON),
             "--data", _write(tmp_path, "d.json", '{"positions": [], "values": [5.0]}')]
    assert cli_main(query + files) == 2
    assert "outside working interval" in capsys.readouterr().err


# the flux of FLUX_JSON on [-2, 2], and the floats next to its ends outside it
EDGE_FLUX = make_flux([-2, 0, 2], [2, 0, 2])
OUTSIDE_ENDS = [math.nextafter(-2.0, -math.inf), math.nextafter(2.0, math.inf)]
BURGERS_SPEC = {"kind": "burgers", "lo": -2.0, "hi": 2.0, "mesh": 0.5}

# each consumer of a state, called with one state v and the other state 0.0
STATE_CONSUMERS = {
    "solve_riemann": (lambda v: solve_riemann(EDGE_FLUX, v, 0.0), "state"),
    "solve_riemann_reversed": (lambda v: solve_riemann(EDGE_FLUX, 0.0, v), "state"),
    "solve_riemann_no_jump": (lambda v: solve_riemann(EDGE_FLUX, v, v), "state"),
    "hull": (lambda v: hull(EDGE_FLUX, min(v, 0.0), max(v, 0.0)), "state"),
    "SimState": (lambda v: SimState(EDGE_FLUX, step([v, 0.0], [0.0])), "u0"),
    "scenario_from_dict": (lambda v: scenario_from_dict(
        {"flux": BURGERS_SPEC, "data": {"A": 0.0, "B": 1.0, "u_minus": v}}), "data"),
    "value_function": (lambda v: value_function(EDGE_FLUX, step([v, 0.0], [0.0]), 0.0, 1.0),
                       "u0"),
}


@pytest.mark.parametrize("v", OUTSIDE_ENDS)
@pytest.mark.parametrize("consumer", sorted(STATE_CONSUMERS))
def test_state_one_float_past_the_flux_ends_is_refused(consumer, v):
    call, field = STATE_CONSUMERS[consumer]
    with refused(field):
        call(v)


@pytest.mark.parametrize("v", [-2.0, 2.0])
@pytest.mark.parametrize("consumer", sorted(STATE_CONSUMERS))
def test_state_on_the_flux_ends_is_accepted(consumer, v):
    STATE_CONSUMERS[consumer][0](v)


@pytest.mark.parametrize("name", ["burgers_shock", "neg_cubic_ii1", "double_well_i",
                                  "buckley_leverett"])
def test_certify_refuses_u_minus_one_float_outside_its_range(name):
    s = preset(name)
    verdict = check_main_conditions(s.flux, s.hypothesis)
    lo, hi = ranges_for(verdict.kind, s.hypothesis)[0]
    for v in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
        with refused("u_minus"):
            certify(s.flux, s.hypothesis, s.A, s.B, constant(v), s.ubar, s.u_plus,
                    t_max=s.t_max, verdict=verdict)


def test_cli_solve_text_snapshot_option_exits_2(tmp_path, capsys):
    rc = cli_main(["solve", "--preset", "burgers_shock", "--out", str(tmp_path / "o"), "--t", "abc"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["file", "under_file"])
@pytest.mark.parametrize("cmd", ["solve", "batch"])
def test_cli_out_at_a_file_exits_2(tmp_path, capsys, cmd, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "out"
    scenario = _write(tmp_path, "s.json", json.dumps({"preset": "burgers_shock"}))
    args = ["--preset", "burgers_shock"] if cmd == "solve" else [scenario]
    assert cli_main([cmd, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out_dir: ") and err.count("\n") == 1
    assert blocker.read_text() == ""


# band ends of the hypothesis: left slopes exist on (flux.lo, flux.hi]
BAND_ENDS = [("a1", -3.0, 2), ("a1", -5.0, 2), ("b1", 3.5, 2), ("b1", 3.0, 3)]


@pytest.mark.parametrize("cmd", ["check", "certify"])
@pytest.mark.parametrize("key, value, code", BAND_ENDS)
def test_hypothesis_band_end_outside_slopes_names_the_field(tmp_path, capsys, cmd, key, value, code):
    raw = emit_scenario(preset("burgers_shock"))   # flux on [-3, 3]
    raw["hypothesis"][key] = value
    path = _write(tmp_path, "f.json", json.dumps(raw))
    assert cli_main([cmd, "--scenario", path]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(f"error: hypothesis.{key}: ")


# every scenario command that walks: the event cap is refused as the scenario
# field that sets how far it walks, not as an argument of the tracker's walk
CAPPED_RUNS = {
    "solve": lambda tmp: ["solve", "--preset", "burgers_shock", "--out", str(tmp / "out")],
    "batch": lambda tmp: ["batch", _write(tmp, "s.json", json.dumps({"preset": "burgers_shock"})),
                          "--out", str(tmp / "out")],
    "certify": lambda tmp: ["certify", "--preset", "burgers_shock"],
    "explore": lambda tmp: ["certify", "--scenario", _write(tmp, "v.json", json.dumps(
        _violated_burgers_shock())), "--explore"],
}


def _violated_burgers_shock():
    """burgers_shock with C = a2, which fails its width ordering, so certify
    --explore walks the data of a violated verdict."""
    raw = emit_scenario(preset("burgers_shock"))
    raw["hypothesis"]["C"] = raw["hypothesis"]["a2"]
    return raw


@pytest.mark.parametrize("run", sorted(CAPPED_RUNS))
def test_scenario_run_past_the_event_cap_names_run_t_max(tmp_path, capsys, monkeypatch, run):
    monkeypatch.setattr(tracking, "MAX_EVENTS", 10)
    assert cli_main(CAPPED_RUNS[run](tmp_path)) == 2
    assert capsys.readouterr().err == "error: run.t_max: more than 10 events\n"
    with refused("run.t_max"):
        run_scenario(preset("burgers_shock"), tmp_path / "lib")
