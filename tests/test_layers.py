"""Front tracking is the bottom layer of the event pipeline: it processes
collisions and records them, and whatever reads a run (emergence detection,
scenarios, the CLI) consumes the records ``events`` yields.  Nothing in the
tracker calls back into those consumers, so ``tracking.py`` imports none of
them and a ``SimState`` holds no consumer."""

import ast
from pathlib import Path

TRACKING = Path(__file__).resolve().parents[1] / "src" / "shocklab" / "tracking.py"
CONSUMERS = {"singleshock", "scenario", "cli"}


def _tree():
    return ast.parse(TRACKING.read_text(), filename=str(TRACKING))


def test_tracking_imports_no_consumer():
    imported = set()
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
    assert imported & CONSUMERS == set()


def test_sim_state_has_no_detector():
    state = next(n for n in ast.walk(_tree()) if isinstance(n, ast.ClassDef) and n.name == "SimState")
    names = {n.attr for n in ast.walk(state) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(state) if isinstance(n, ast.Name)}
    assert "_detector" not in names
