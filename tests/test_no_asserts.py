"""Invariant checks in the package must raise, not assert: ``python -O``
strips ``assert`` statements, which would silently switch the checks off.
What they raise is a library error, so the CLI turns every failure into exit
code 2 and callers can catch one base class: a ValidationError, which names
the input to change, or BoundViolated, a measurement against the paper's
bound."""

import ast
from pathlib import Path

import pytest

from shocklab import errors

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "shocklab").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


RAISED = {"ValidationError", "BoundViolated"}


def test_errors_defines_three_classes():
    assert {
        name for name, v in vars(errors).items() if isinstance(v, type)
    } == RAISED | {"ShockLabError"}


def _raised_name(exc) -> str | None:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raises_name_library_errors(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    untyped = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node.exc) not in RAISED
    ]
    assert untyped == [], f"{path.name}: raises other than {sorted(RAISED)} at lines {untyped}"
