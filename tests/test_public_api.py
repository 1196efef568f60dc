"""The package exports an explicit list of public names: each one resolves,
none is a module or a private helper, and a star import gives exactly them."""

import types

import shocklab
from shocklab import riemann


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


def test_star_import_gives_all():
    scope: dict = {}
    exec("from shocklab import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == sorted(shocklab.__all__)
