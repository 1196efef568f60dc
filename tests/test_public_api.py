"""The package exports an explicit list of public names: each one resolves,
none is a module or a private helper, and a star import gives exactly them."""

import types

import shocklab


def test_all_lists_public_names_only():
    names = shocklab.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(shocklab, name)
        assert not name.startswith("_") and not isinstance(obj, types.ModuleType), name
    assert "step_from_pairs" not in names
    # wrappers whose callers only read what they wrap
    for gone in ("WaveFan", "TripletKind", "analytic_T0_bound"):
        assert gone not in names and not hasattr(shocklab, gone), gone


def test_star_import_gives_all():
    scope: dict = {}
    exec("from shocklab import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == sorted(shocklab.__all__)
