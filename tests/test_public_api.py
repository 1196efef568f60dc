"""The package exports an explicit list of public names: each one resolves,
none is a module or a private helper, a star import gives exactly them, and
each one has a job outside the tests."""

import re
import types
from pathlib import Path

import shocklab
from shocklab import errors, flux, riemann

ROOT = Path(__file__).resolve().parents[1]

# public names with no caller in src/, demos/ or perfbench/ yet, each with the
# reason it stays
NO_CALLER_YET = {
    "compute_alpha0": "base point of the tangent-witness counterexamples (ROADMAP item 3)",
    "is_characteristic_line": "convex half of the tracked R-curve gate (ROADMAP item 4)",
    "oleinik_condition_e": "entropy oracle of the Riemann property tests (ROADMAP item 5)",
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


def test_unused_convex_modification_api_is_gone():
    for gone in ("chord_slope", "chord_slope_check", "convex_modify", "convex_modify_onesided"):
        assert gone not in shocklab.__all__ and not hasattr(shocklab, gone), gone
        assert not hasattr(flux, gone), gone
    assert not hasattr(flux, "Q_SUBDIVISIONS") and not hasattr(flux, "_convex_or_raise")
    for gone in ("WrongTriplet", "ChordSlopeViolated"):
        assert not hasattr(errors, gone) and not hasattr(shocklab, gone), gone
    assert not hasattr(shocklab.Flux, "right_slope")
    assert not hasattr(shocklab.StepFunction, "translate")


def test_every_public_name_has_a_use():
    """A word match outside the name's own def or class line, in src/ (less
    the package's re-exports), demos/ or perfbench/."""
    files = [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    lines = [
        line for p in files if p != ROOT / "src" / "shocklab" / "__init__.py"
        for line in p.read_text().splitlines()
    ]
    unused = set()
    for name in shocklab.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.add(name)
    assert unused == set(NO_CALLER_YET)


def test_star_import_gives_all():
    scope: dict = {}
    exec("from shocklab import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == sorted(shocklab.__all__)
