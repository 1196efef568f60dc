"""The package exports an explicit list of public names: each one resolves,
none is a module or a private helper, and a star import gives exactly them.
Each of them, and each public function, class and method of the package, has
a job outside the tests."""

import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import pytest

import shocklab
from shocklab import cli, errors, flux, legendre, riemann, scenario, singleshock, step, tracking

ROOT = Path(__file__).resolve().parents[1]

# public names with no caller in src/, demos/ or perfbench/ yet, each with the
# reason it stays
NO_CALLER_YET = {
    "compute_alpha0": "base point of the tangent-witness counterexamples (ROADMAP item 6, "
                      "the paper's \"necessary and sufficient\", tested on random fluxes)",
    "is_characteristic_line": "convex half of the tracked R-curve gate (ROADMAP item 8, "
                              "Generalized characteristics for non-convex flux)",
    "oleinik_condition_e": "entropy oracle of the Riemann property tests (ROADMAP item 9, "
                           "Invariant errors and property tests)",
}


def test_all_lists_public_names_only():
    names = shocklab.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(shocklab, name)
        assert not name.startswith("_") and not isinstance(obj, types.ModuleType), name
    assert "step_from_pairs" not in names
    # wrappers whose callers only read what they wrap
    for gone in ("WaveFan", "TripletKind", "analytic_T0_bound", "front_speed"):
        assert gone not in names and not hasattr(shocklab, gone), gone
    # test-only helpers, now oracles in tests/conftest.py
    assert not hasattr(riemann, "front_speed") and not hasattr(shocklab.Flux, "lipschitz")
    assert not hasattr(step, "l1_distance") and not hasattr(step, "everywhere_leq")
    assert not hasattr(shocklab.StepFunction, "tv_exact")
    assert not hasattr(legendre, "dual_bruteforce")


def test_unused_convex_modification_api_is_gone():
    for gone in ("chord_slope", "chord_slope_check", "convex_modify", "convex_modify_onesided"):
        assert gone not in shocklab.__all__ and not hasattr(shocklab, gone), gone
        assert not hasattr(flux, gone), gone
    assert not hasattr(flux, "Q_SUBDIVISIONS") and not hasattr(flux, "_convex_or_raise")
    for gone in ("WrongTriplet", "ChordSlopeViolated"):
        assert not hasattr(errors, gone) and not hasattr(shocklab, gone), gone
    assert not hasattr(shocklab.Flux, "right_slope")
    assert not hasattr(shocklab.StepFunction, "translate")


FOLDED_ERRORS = (
    "NonMonotoneBreakpoints", "LengthMismatch", "EmptyMesh", "DegenerateChord", "BoundaryPoint",
    "COutOfRange", "EmptyInterval", "StateOutOfRange", "NotConvex", "EventOverflow",
    "NonPositiveTime", "WindowExceeded", "NotATriplet", "HypothesisNotChecked",
    "NoRootInInterval", "ParseError",
)


def test_single_use_error_classes_are_folded_into_validation_error():
    assert len(FOLDED_ERRORS) == 16
    for gone in FOLDED_ERRORS:
        assert not hasattr(errors, gone) and not hasattr(shocklab, gone), gone


def test_one_owner_per_decision():
    # certify runs to the horizon its caller passes; the scenario owns the default
    assert inspect.signature(singleshock.certify).parameters["t_max"].default is (
        inspect.Parameter.empty)
    # a state builds its own initial fronts, through the fan memo of its events
    assert list(inspect.signature(tracking.SimState).parameters) == ["flux", "u0"]
    assert not hasattr(tracking, "_fan")
    assert not inspect.signature(scenario._counterexample_2_flux).parameters
    # the CLI's flux and data files are read as scenario files are
    assert not hasattr(cli, "_read_fields")
    # each tracker object is built at one site: one splice writes the chain's
    # head and queues its new pairs, one formula makes a fan's fronts, and one
    # constructor makes an emergence report
    splice = ["SimState._splice"]
    head_stores = _sites("tracking", lambda n: isinstance(n, ast.Attribute)
                         and n.attr == "head" and isinstance(n.ctx, ast.Store))
    assert sorted(set(head_stores)) == splice
    assert sorted(set(_sites("tracking", _is_call("_schedule")))) == splice
    assert _sites("riemann", _is_call("Front")) == ["solve_riemann"]
    assert _sites("singleshock", _is_call("EmergenceReport")) == ["run_until_single_front"]
    # one entry decides the theorem's conditions, and one helper turns a failed
    # strict inequality into a witness; the band check records the others
    assert _sites("singleshock", _is_call("Witness")) == ["_require", "check_main_conditions"]
    assert sorted(set(_sites("singleshock", _is_call("_strict_less")))) == [
        "_require", "compute_alpha0"]
    for gone in ("check_hypothesis_H", "HypothesisReport", "_chord_conditions"):
        assert not hasattr(singleshock, gone) and not hasattr(shocklab, gone), gone
    # a front is known by identity; the artifact writer numbers fronts as it
    # prints them, so no front, state or module keeps an id counter
    assert [f.name for f in dataclasses.fields(tracking._LiveFront)] == [
        "x0", "t0", "speed", "left", "right", "prev", "next"]
    for path in sorted((ROOT / "src" / "shocklab").glob("*.py")):
        assert not _sites(path.stem, lambda n: isinstance(n, ast.Attribute)
                          and n.attr in ("fid", "_fid")), path.name


def test_records_are_named_tuples():
    # immutable values with fixed fields: a fan's fronts and an event's record
    assert riemann.Front._fields == ("speed", "left", "right")
    assert tracking.EventRecord._fields == ("t", "x", "incoming", "outgoing")
    front = riemann.Front(0.5, 1.0, 0.0)
    rec = tracking.EventRecord(1.0, 0.5, (), ())
    for value, name in ((front, "speed"), (front, "left"), (rec, "t"), (rec, "outgoing")):
        with pytest.raises(AttributeError):
            setattr(value, name, 2.0)
    assert repr(front) == "Front(speed=0.5, left=1.0, right=0.0)"
    assert front.to_json() == {"speed": 0.5, "left": 1.0, "right": 0.0}
    # a record is built where the tracker processes a collision, as a front
    # is in the Riemann solver
    assert _sites("tracking", _is_call("EventRecord")) == ["SimState._process"]


def _is_call(name):
    """Matches a call of ``name``, as a plain name or an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _sites(module, match):
    """Dotted name of the class or function around each node of
    src/shocklab/<module>.py that ``match`` accepts, in source order."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if match(child):
                found.append(".".join(scope))
            walk(child, scope)

    walk(ast.parse((ROOT / "src" / "shocklab" / f"{module}.py").read_text()), ())
    return found


def _public_defs():
    """The exported names, every public module-level function and class of
    src/shocklab, and every public method of those classes."""
    names = set(shocklab.__all__)
    for path in sorted((ROOT / "src" / "shocklab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(m.name for m in node.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return names


def test_every_public_name_has_a_use():
    """A word match outside the name's own def or class line, in src/ (less
    the package's re-exports), demos/ or perfbench/: the library keeps no
    code that only the tests run."""
    files = [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    lines = [
        line for p in files if p != ROOT / "src" / "shocklab" / "__init__.py"
        for line in p.read_text().splitlines()
    ]
    names = _public_defs()
    # module functions outside __all__ and methods are checked too
    assert {"assemble_initial_data", "tv", "outside"} <= names
    unused = set()
    for name in sorted(names):
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.add(name)
    assert unused == set(NO_CALLER_YET)


def test_star_import_gives_all():
    scope: dict = {}
    exec("from shocklab import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == sorted(shocklab.__all__)
