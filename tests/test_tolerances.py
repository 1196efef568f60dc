"""Every tolerance in the package is listed in the README's tolerance table.

States are compared exactly, so a float literal in (0, 1e-6) can only be a
tolerance on a computed quantity.  Each one needs a row that gives its module
and value, names the function (or module constant) holding it and says what
it compares, and cites the test that justifies it.  So a margin on states
cannot come back unlisted, and a row whose literal is gone cannot stay.  The
row of a module constant ``*_TOL`` also names every function that reads it,
so a shared tolerance cannot gain a reader nobody listed."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "shocklab").glob("*.py"))
HEADER = "| module | value | compares | oracle test |"


def nodes():
    """(module, node, scope) of every AST node in the package; the scope is
    the dotted name of the enclosing classes and functions, such as
    ``Flux._runs``, or the module constant assigned."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        elif isinstance(node, ast.Assign) and scope is None:
            scope = ast.unparse(node.targets[0])
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for path in SOURCES:
        for node, scope in visit(ast.parse(path.read_text(), filename=str(path)), None):
            yield path.name, node, scope


def literals() -> set[tuple[str, float, str]]:
    """(module, value, scope) of every float literal in (0, 1e-6) in the package."""
    return {
        (module, node.value, scope) for module, node, scope in nodes()
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-6
    }


def readers() -> dict[str, set[str]]:
    """Each module constant ``*_TOL`` of the package -> the scopes that load it."""
    found = {scope: set() for _, node, scope in nodes()
             if isinstance(node, ast.Assign) and scope == ast.unparse(node.targets[0])
             and scope.endswith("_TOL")}
    for _, node, scope in nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in found:
            found[node.id].add(scope)
    return found


def table_rows() -> list[tuple[str, float, str, str]]:
    """(module, value, compares, oracle) of each row of the README's table."""
    lines = [line.strip() for line in (ROOT / "README.md").read_text().splitlines()]
    rows = []
    for line in lines[lines.index(HEADER) + 2:]:   # past the header and its rule
        if not line.startswith("|"):
            break
        module, value, compares, oracle = (
            cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1])
        rows.append((module.strip("`"), float(value.strip("`")), compares, oracle))
    return rows


def test_every_tolerance_literal_has_a_row():
    rows = table_rows()
    unlisted = [
        lit for lit in sorted(literals())
        if not any((m, v) == lit[:2] and f"`{lit[2]}`" in compares for m, v, compares, _ in rows)
    ]
    assert unlisted == []


def test_every_row_has_its_literal():
    present = {lit[:2] for lit in literals()}
    assert [row[:2] for row in table_rows() if row[:2] not in present] == []


def test_every_row_names_an_existing_test():
    for module, value, _, oracle in table_rows():
        match = re.search(r"`(tests/\w+\.py)::(\w+)`", oracle)
        assert match, (module, value, oracle)
        path, name = match.groups()
        tree = ast.parse((ROOT / path).read_text())
        assert name in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, oracle


def test_every_reader_of_a_tolerance_constant_is_named():
    rows, found = table_rows(), readers()
    assert found, "no *_TOL constant found"
    for name, scopes in found.items():
        compares = [c for _, _, c, _ in rows if f"`{name}`" in c]
        assert len(compares) == 1, name
        assert sorted(s for s in scopes if f"`{s}`" not in compares[0]) == [], name
