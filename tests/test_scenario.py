import argparse
import json

import pytest

from conftest import refused
from shocklab import cli, errors
from shocklab.cli import main as cli_main
from shocklab.scenario import (
    PRESETS,
    _counterexample_2_flux,
    emit_scenario,
    load_scenario,
    preset,
    run_batch,
    run_scenario,
    scenario_from_dict,
)


MINIMAL = {
    "name": "mini",
    "flux": {"kind": "burgers", "lo": -2.0, "hi": 2.0, "mesh": 0.5, "corners": [0.0, 1.0]},
    "data": {"A": 0.0, "B": 1.0, "u_minus": 1.0, "u_plus": 0.0, "ubar": 0.5},
    "run": {"t_max": 10.0, "snapshots": [0.0, 1.0]},
}


def test_minimal_scenario_one_middle_piece():
    s = scenario_from_dict(MINIMAL)
    u0 = s.initial_data()
    assert u0.positions == (0.0, 1.0)
    assert u0.values == (1.0, 0.5, 0.0)


def test_load_scenario_roundtrip(tmp_path):
    s = preset("burgers_shock")
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(emit_scenario(s)))
    s2 = load_scenario(p)
    assert s2.flux == s.flux
    assert s2.u_minus == s.u_minus
    assert s2.ubar == s.ubar
    assert s2.hypothesis == s.hypothesis or s2.hypothesis is None
    # emit again: byte-identical canonical form
    assert json.dumps(emit_scenario(s2), sort_keys=True) == json.dumps(
        emit_scenario(load_scenario(p)), sort_keys=True
    )


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with refused(str(p)) as err:
        load_scenario(p)
    assert str(err.value).startswith(f"{p}: Expecting property name")


def test_validation_error_a_after_b():
    raw = json.loads(json.dumps(MINIMAL))
    raw["data"]["A"] = 2.0
    with pytest.raises(errors.ValidationError):
        scenario_from_dict(raw)


def test_validation_error_data_outside_interval():
    raw = json.loads(json.dumps(MINIMAL))
    raw["data"]["u_minus"] = 5.0
    with pytest.raises(errors.ValidationError):
        scenario_from_dict(raw)


def test_random_ubar_deterministic():
    raw = json.loads(json.dumps(MINIMAL))
    raw["data"]["ubar"] = {"random": {"steps": 6, "lo": 0.0, "hi": 1.0, "seed": 3}}
    s1 = scenario_from_dict(raw)
    s2 = scenario_from_dict(raw)
    assert s1.ubar == s2.ubar
    assert len(s1.ubar.values) <= 6


def test_counterexample_1_scenario_runs(tmp_path):
    s = preset("counterexample_1")
    report = run_scenario(s, tmp_path)
    assert report["events"] == 0
    assert report["verdict"] == "violated"
    assert report["kind"] == "violated"
    p0 = (tmp_path / "counterexample_1_profile_t0.csv").read_text()
    p100 = (tmp_path / "counterexample_1_profile_t100.csv").read_text()
    assert p0 == p100


def test_burgers_scenario_report(tmp_path):
    s = preset("burgers_shock")
    report = run_scenario(s, tmp_path)
    assert report["kind"] == "I"
    assert report["verdict"] == "emerged"
    assert report["final_speed"] == 0.5
    assert report["T0"] == report["gamma"]  # |A - B| = 1
    assert (tmp_path / "burgers_shock_events.ndjson").exists()
    assert (tmp_path / "burgers_shock_fronts.csv").exists()


PHASES = {"init", "check", "certify", "finish", "artifacts"}


@pytest.mark.parametrize("name, skipped", [
    ("burgers_shock", set()),              # checked and certified
    ("counterexample_1", {"certify"}),     # conditions violated
    ("mini", {"check", "certify"}),        # no hypothesis block
])
def test_meta_times_each_phase(tmp_path, name, skipped):
    s = scenario_from_dict(MINIMAL) if name == "mini" else preset(name)
    meta = run_scenario(s, tmp_path)["meta"]
    phases = meta["phases_s"]
    assert set(phases) == PHASES
    assert all(v >= 0.0 for v in phases.values())
    assert all(phases[k] == 0.0 for k in skipped)
    assert sum(phases.values()) <= meta["wall_s"]


def _strip_meta(report):
    return {k: v for k, v in report.items() if k != "meta"}


def test_reports_reproducible(tmp_path):
    r1 = run_scenario(preset("burgers_shock"), tmp_path / "a")
    r2 = run_scenario(preset("burgers_shock"), tmp_path / "b")
    assert json.dumps(_strip_meta(r1), sort_keys=True) == json.dumps(
        _strip_meta(r2), sort_keys=True
    )
    assert (tmp_path / "a/burgers_shock_events.ndjson").read_text() == (
        tmp_path / "b/burgers_shock_events.ndjson"
    ).read_text()


def _write_presets(tmp_path, names, rename=True):
    paths = []
    for i, name in enumerate(names):
        p = tmp_path / f"s{i}.json"
        raw = emit_scenario(preset(name))
        p.write_text(json.dumps(raw | {"name": f"s{i}"} if rename else raw))
        paths.append(p)
    return paths


def test_batch_order_independent(tmp_path):
    # a batch writes exactly what one run_scenario per file writes
    paths = _write_presets(tmp_path, ["burgers_shock", "counterexample_1"])
    batch = [_strip_meta(r) for r in run_batch(paths, tmp_path / "batch")]
    single = [_strip_meta(run_scenario(load_scenario(p), tmp_path / "single")) for p in paths]
    assert json.dumps(batch, sort_keys=True) == json.dumps(single, sort_keys=True)
    files = sorted(f.name for f in (tmp_path / "batch").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "single").iterdir())
    for name in files:
        if not name.endswith("_report.json"):
            assert (tmp_path / "batch" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()


def test_cli_batch_writes_every_scenario(tmp_path):
    paths = _write_presets(tmp_path, ["burgers_shock", "counterexample_1"])
    assert cli_main(["batch", *map(str, paths), "--out", str(tmp_path / "out")]) == 0
    reports = sorted(p.name for p in (tmp_path / "out").glob("*_report.json"))
    assert reports == ["s0_report.json", "s1_report.json"]


def test_preset_file_loads_the_preset(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"preset": "burgers_shock"}))
    assert load_scenario(path) == preset("burgers_shock")


def test_batch_rejects_shared_names(tmp_path, capsys):
    paths = _write_presets(tmp_path, ["burgers_shock", "burgers_shock"], rename=False)
    with pytest.raises(errors.ValidationError, match="burgers_shock"):
        run_batch(paths, tmp_path / "out")
    assert cli_main(["batch", *map(str, paths), "--out", str(tmp_path / "out")]) == 2
    assert "share names" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_riemann(tmp_path, capsys):
    flux_path = tmp_path / "flux.json"
    flux_path.write_text(json.dumps({"breakpoints": [-2, -1, 0, 1, 2], "values": [4, 1, 0, 1, 4]}))
    rc = cli_main(["riemann", "--flux", str(flux_path), "--left", "-1", "--right", "1"])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines == [
        {"speed": -1.0, "left": -1.0, "right": 0.0},
        {"speed": 1.0, "left": 0.0, "right": 1.0},
    ]


def test_cli_dual(tmp_path, capsys):
    flux_path = tmp_path / "flux.json"
    flux_path.write_text(json.dumps({"breakpoints": [-2, -1, 0, 1, 2], "values": [4, 1, 0, 1, 4]}))
    assert cli_main(["dual", "--flux", str(flux_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["breakpoints"] == [-3.0, -1.0, 1.0, 3.0]


def test_cli_laxoleinik_and_rcurve(tmp_path, capsys):
    flux_path = tmp_path / "flux.json"
    flux_path.write_text(json.dumps({"breakpoints": [-2, -1, 0, 1, 2], "values": [4, 1, 0, 1, 4]}))
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps({"positions": [0.0], "values": [-1.0, 1.0]}))
    rc = cli_main(["laxoleinik", "--flux", str(flux_path), "--data", str(data_path),
                   "--x", "0", "--t", "1"])
    assert rc == 0
    cd = json.loads(capsys.readouterr().out)
    assert cd["y_minus"] == pytest.approx(0.0, abs=1e-12)
    rc = cli_main(["rcurve", "--flux", str(flux_path), "--data", str(data_path),
                   "--alpha", "0", "--side", "plus", "--t", "0.5,1.0"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "t,R"
    t, x = map(float, rows[2].split(","))
    assert x == pytest.approx(t, abs=1e-8)


def test_cli_check_exit_codes(capsys):
    assert cli_main(["check", "--preset", "burgers_shock"]) == 0
    capsys.readouterr()
    assert cli_main(["check", "--preset", "counterexample_1"]) == 3
    capsys.readouterr()


def test_cli_certify_exit_codes(capsys):
    assert cli_main(["certify", "--preset", "burgers_shock"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["emerged"] is True


def test_cli_config_error(capsys):
    assert cli_main(["check"]) == 2
    assert capsys.readouterr().err.startswith("error: --scenario: ")


@pytest.mark.parametrize("cmd", ["check", "certify"])
def test_out_is_not_an_option_of_commands_that_write_nothing(tmp_path, capsys, cmd):
    with pytest.raises(SystemExit) as exit_:
        cli_main([cmd, "--preset", "burgers_shock", "--out", str(tmp_path / "x")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_check_without_hypothesis_exits_2(tmp_path, capsys):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINIMAL))
    assert cli_main(["check", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: hypothesis: scenario has no hypothesis block\n"


def test_equal_ends_leave_no_room_for_middle_steps():
    data = MINIMAL["data"] | {"B": 0.0, "ubar": {"values": [0.5, -0.5], "positions": [0.5]}}
    with refused("data.ubar"):
        scenario_from_dict(MINIMAL | {"data": data})


def test_cli_solve_writes(tmp_path, capsys):
    rc = cli_main(["solve", "--preset", "counterexample_2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "counterexample_2_report.json").exists()


def test_unknown_preset():
    with pytest.raises(errors.ValidationError):
        preset("nope")


def test_cli_solve_extra_snapshots(tmp_path):
    rc = cli_main(["solve", "--preset", "counterexample_1", "--out", str(tmp_path), "--t", "7.5"])
    assert rc == 0
    assert (tmp_path / "counterexample_1_profile_t7.5.csv").exists()


@pytest.fixture
def parsers_built(monkeypatch):
    """The names of the argument parsers built while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_cli_calls_share_one_parser_and_no_arguments(monkeypatch, parsers_built):
    snapshots = []
    monkeypatch.setattr(cli, "run_scenario", lambda s, out: snapshots.append(s.snapshots))
    assert cli_main(["solve", "--preset", "counterexample_1", "--t", "3"]) == 0
    first = len(parsers_built)   # 0 when an earlier call built the parser
    assert cli_main(["solve", "--preset", "counterexample_1"]) == 0
    assert len(parsers_built) == first
    # the second call parses afresh: no --t, so no extra snapshot
    assert 3.0 in snapshots[0] and 3.0 not in snapshots[1]


def test_shared_parser_still_refuses_unknown_options(capsys, parsers_built):
    assert cli_main(["check", "--preset", "burgers_shock"]) == 0
    first = len(parsers_built)
    with pytest.raises(SystemExit) as stop:
        cli_main(["check", "--preset", "burgers_shock", "--bogus"])
    assert stop.value.code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert cli_main(["check", "--preset", "burgers_shock"]) == 0
    assert len(parsers_built) == first


def test_cli_certify_explore_mode(capsys):
    rc = cli_main(["certify", "--preset", "counterexample_2", "--explore"])
    assert rc == 3
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "violated"
    assert out["exploration"]["emerged"] is False


def _artifacts(out):
    """Every artifact's bytes, the report without its wall-clock meta."""
    got = {}
    for p in sorted(out.iterdir()):
        text = p.read_text()
        if p.name.endswith("_report.json"):
            text = json.dumps(_strip_meta(json.loads(text)), sort_keys=True)
        got[p.name] = text
    return got


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_object_as_a_file_writes_the_preset_artifacts(tmp_path, name):
    # a preset is the object of a scenario file: written out, it runs the same
    obj = PRESETS[name]
    if name == "counterexample_2":
        obj = obj | {"flux": _counterexample_2_flux().to_json()}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["solve", "--scenario", str(path), "--out", str(tmp_path / "file")]) == 0
    assert cli_main(["solve", "--preset", name, "--out", str(tmp_path / "preset")]) == 0
    assert _artifacts(tmp_path / "file") == _artifacts(tmp_path / "preset")
