"""Malformed scenario files end as exit code 2 with an `error:` line: ill-typed,
non-finite and missing fields, and names that would place artifacts outside
the output directory.  The explicit cases name the field at fault; the
hypothesis fuzz corrupts valid scenarios and checks that `shocklab solve`
never raises and never writes."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shocklab.cli import main as cli_main
from shocklab.flux import ANALYTIC_FLUXES, MAX_FLUX_NODES
from shocklab.scenario import scenario_from_dict

# valid scenarios that together reach every field the parser reads
BASES = [
    {
        "name": "burgers",
        "flux": {"kind": "burgers", "lo": -2.0, "hi": 2.0, "mesh": 0.5, "corners": [0.0, 1.0]},
        "data": {"A": 0.0, "B": 1.0, "u_minus": 1.0, "u_plus": 0.0, "ubar": 0.5},
        "hypothesis": {"a1": 0.0, "a2": 0.0, "C": 0.25, "D": 0.75, "b2": 1.0, "b1": 1.0},
        "run": {"t_max": 5.0, "snapshots": [0.0, 1.0]},
    },
    {
        "name": "table",
        "flux": {"breakpoints": [-2, 0, 2], "values": [2, 0, 2]},
        "data": {
            "A": 0, "B": 1,
            "u_minus": {"values": [1.0, 0.5], "positions": [-1.0]},
            "ubar": {"values": [0.5, -0.5], "positions": [0.5]},
        },
        "run": {"t_max": 2},
    },
    {
        "name": "buckley",
        "flux": {"kind": "buckley_leverett", "lo": -0.2, "hi": 1.2, "mesh": 0.1,
                 "params": {"r": 1.0}},
        "data": {"A": 0.0, "B": 1.0, "u_minus": 0.5,
                 "ubar": {"random": {"steps": 3, "lo": 0.0, "hi": 0.5, "seed": 1}}},
    },
]

# keys whose absence is valid; every other key is required where it appears
OPTIONAL = {
    ("name",), ("run",), ("run", "t_max"), ("run", "snapshots"), ("hypothesis",),
    ("flux", "corners"), ("flux", "params"), ("flux", "params", "r"),
    ("data", "u_minus"), ("data", "u_plus"), ("data", "ubar"),
}


def _solve(raw, where: Path):
    path = where / "s.json"
    path.write_text(json.dumps(raw))
    return cli_main(["solve", "--scenario", str(path), "--out", str(where / "out")])


def _check_rejected(raw, where: Path, capsys):
    assert _solve(raw, where) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (where / "out").exists()
    return err


def test_bases_are_valid():
    for raw in BASES:
        assert scenario_from_dict(raw).name == raw["name"]


def _with(base, path, value):
    raw = json.loads(json.dumps(base))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


ILL_TYPED = {
    "text_snapshot": (("run", "snapshots"), ["a"], "run.snapshots[0]"),
    "run_list": (("run",), [], "run"),
    "text_A": (("data", "A"), "x", "data.A"),
    "text_hypothesis": (("hypothesis", "C"), "0.25", "hypothesis.C"),
    "null_hypothesis_entry": (("hypothesis", "a1"), None, "hypothesis.a1"),
    "hypothesis_list": (("hypothesis",), [0, 0, 1, 1, 2, 2], "hypothesis"),
    "nan_corner": (("flux", "corners"), [math.nan], "flux.corners[0]"),
    "inf_mesh": (("flux", "mesh"), math.inf, "flux.mesh"),
    "bool_B": (("data", "B"), True, "data.B"),
    "huge_integer_t_max": (("run", "t_max"), 10**400, "run.t_max"),
    "text_u_minus": (("data", "u_minus"), "1", "data.u_minus"),
    "list_kind": (("flux", "kind"), ["burgers"], "flux.kind"),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_ill_typed_field_names_the_field(tmp_path, capsys, case):
    path, value, field = ILL_TYPED[case]
    err = _check_rejected(_with(BASES[0], path, value), tmp_path, capsys)
    assert err.startswith(f"error: {field}: ")


NON_FINITE = {
    "nan_breakpoint": (1, ("flux", "breakpoints"), [-2, math.nan, 2], "flux.breakpoints[1]"),
    "inf_flux_value": (1, ("flux", "values"), [2, math.inf, 2], "flux.values[1]"),
    "inf_position": (1, ("data", "ubar", "positions"), [math.inf], "data.ubar.positions[0]"),
    "nan_position": (1, ("data", "u_minus", "positions"), [math.nan], "data.u_minus.positions[0]"),
    "nan_random_lo": (2, ("data", "ubar", "random", "lo"), math.nan, "data.ubar.random.lo"),
    "text_params": (2, ("flux", "params"), "r=1", "flux.params"),
    "float_steps": (2, ("data", "ubar", "random", "steps"), 2.5, "data.ubar.random.steps"),
    "negative_seed": (2, ("data", "ubar", "random", "seed"), -1, "data.ubar.random.seed"),
    "huge_steps": (2, ("data", "ubar", "random", "steps"), 10**30, "data.ubar.random.steps"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_or_out_of_range_field_names_the_field(tmp_path, capsys, case):
    base, path, value, field = NON_FINITE[case]
    err = _check_rejected(_with(BASES[base], path, value), tmp_path, capsys)
    assert err.startswith(f"error: {field}: ")


BAD_NAMES = ["../escaped", "a/b", "..", ".", "", "a\\b", "a\x00b", "/tmp/abs", 7, None]


@pytest.mark.parametrize("name", BAD_NAMES, ids=repr)
def test_path_like_name_rejected_by_solve(tmp_path, capsys, name):
    work = tmp_path / "work"
    work.mkdir()
    err = _check_rejected(_with(BASES[0], ("name",), name), work, capsys)
    assert err.startswith("error: name: ")
    assert list(tmp_path.iterdir()) == [work]
    assert sorted(p.name for p in work.iterdir()) == ["s.json"]


def test_path_like_name_rejected_by_batch(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(BASES[0]))
    bad.write_text(json.dumps(_with(BASES[1], ("name",), "../escaped")))
    out = tmp_path / "out"
    assert cli_main(["batch", str(good), str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: name: ")
    assert not out.exists()
    assert not list(tmp_path.glob("escaped*"))


# -- fuzz ------------------------------------------------------------------------------

json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=4))
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
# replacements that are wrong wherever a value of the given kind is expected
BAD_FOR = {
    "number": st.one_of(st.none(), st.booleans(), st.text(max_size=4), non_finite,
                        st.lists(json_value, max_size=2),
                        st.dictionaries(st.text(max_size=3), json_scalar, max_size=2)),
    "list": st.one_of(st.none(), st.booleans(), st.text(max_size=4), non_finite,
                      st.floats(-2, 2), st.dictionaries(st.text(max_size=3), json_scalar, max_size=2)),
    "object": st.one_of(st.booleans(), st.text(max_size=4), st.lists(json_value, max_size=2)),
    "name": st.one_of(
        st.sampled_from(["", ".", ".."]),
        st.tuples(st.text(max_size=3), st.sampled_from(["/", "\\", "\x00", "../"]),
                  st.text(max_size=3)).map("".join),
        st.none(), st.integers(), st.lists(st.text(max_size=2), max_size=2),
    ),
    "kind": st.one_of(st.none(), st.integers(), st.lists(json_scalar, max_size=2),
                      st.text(max_size=8).filter(lambda k: k not in ANALYTIC_FLUXES)),
}


def _nodes(obj, path=()):
    """Every (path, value) below the root, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _kind(path, value):
    if path == ("name",):
        return "name"
    if path == ("flux", "kind"):
        return "kind"
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "list"
    return "number"


@st.composite
def corrupted(draw):
    """A base scenario with one to three corruptions, each either a required
    key deleted or a value replaced by one that is wrong at its place."""
    raw = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(_nodes(raw))))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        deletable = isinstance(parent, dict) and path not in OPTIONAL
        if deletable and draw(st.booleans()):
            del parent[path[-1]]
            continue
        bad = BAD_FOR[_kind(path, value)]
        if path == ("hypothesis",):   # null means "no hypothesis"
            bad = bad.filter(lambda v: v is not None)
        parent[path[-1]] = draw(bad)
    return raw


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corrupted())
def test_fuzzed_scenario_exits_2(raw):
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        # capture stderr by hand: function-scoped fixtures do not reset per example
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = _solve(raw, where)
        assert rc == 2, raw
        assert err.getvalue().startswith("error: ")
        assert not (where / "out").exists()


# -- absurd magnitudes -----------------------------------------------------------------
# Every number below passes the field converters (finite floats); the flux
# sampler must still refuse a grid it cannot build and a flux it cannot
# evaluate, naming the field at fault.

ABSURD = {
    "widest_interval": (0, ("flux",), {"kind": "burgers", "lo": -1e308, "hi": 1e308, "mesh": 0.5},
                        "flux.mesh"),
    "tiny_mesh": (0, ("flux", "mesh"), 1e-300, "flux.mesh"),
    "one_node_past_the_cap": (0, ("flux", "mesh"), 4.0 / (MAX_FLUX_NODES + 1), "flux.mesh"),
    "burgers_overflow": (0, ("flux",), {"kind": "burgers", "lo": -1.0, "hi": 1e200, "mesh": 1e199},
                         "flux.hi"),
    "double_well_overflow": (0, ("flux",),
                             {"kind": "double_well", "lo": -1e100, "hi": 1e100, "mesh": 1e99},
                             "flux.lo"),
    "neg_cubic_overflow": (0, ("flux",), {"kind": "neg_cubic", "lo": -1e200, "hi": 2.0, "mesh": 1e199},
                           "flux.lo"),
    "buckley_overflow": (2, ("flux",),
                         {"kind": "buckley_leverett", "lo": -1e200, "hi": 1.2, "mesh": 1e199},
                         "flux.lo"),
    "buckley_negative_r": (2, ("flux", "params", "r"), -1.0, "flux.params"),
    "buckley_zero_r": (2, ("flux", "params", "r"), 0.0, "flux.params"),
}


@pytest.mark.parametrize("case", sorted(ABSURD))
def test_absurd_flux_names_the_field(tmp_path, capsys, case):
    base, path, value, field = ABSURD[case]
    err = _check_rejected(_with(BASES[base], path, value), tmp_path, capsys)
    assert err.startswith(f"error: {field}: ")


@st.composite
def absurd_scenario(draw):
    """An analytic flux on [-a 10^e, b 10^e] with up to 40 grid cells, and
    data at fractions of that interval."""
    kind = draw(st.sampled_from(sorted(ANALYTIC_FLUXES)))
    e = draw(st.integers(0, 308))
    a, b = draw(st.floats(0.1, 1.8)), draw(st.floats(0.1, 1.8))
    lo, hi = -a * 10.0 ** e, b * 10.0 ** e
    cells = draw(st.integers(1, 40))
    # lo + f (hi - lo) overflows where hi - lo does; the convex mix does not
    at = lambda f: (1.0 - f) * lo + f * hi
    flux = {"kind": kind, "lo": lo, "hi": hi, "mesh": hi / cells - lo / cells}
    if kind == "buckley_leverett":
        flux["params"] = {"r": 10.0 ** draw(st.integers(-300, 300))}
    frac = st.floats(0.0, 1.0)
    data = {"A": 0.0, "B": 1.0, "u_minus": at(draw(frac)), "u_plus": at(draw(frac)),
            "ubar": {"values": [at(draw(frac)), at(draw(frac))], "positions": [0.5]}}
    return {"name": "absurd", "flux": flux, "data": data, "run": {"t_max": 10.0}}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(absurd_scenario())
def test_absurd_magnitudes_solve_or_exit_2(raw):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = _solve(raw, Path(tmp))
        assert rc in (0, 2), raw
        if rc == 2:
            assert err.getvalue().startswith("error: flux."), err.getvalue()
