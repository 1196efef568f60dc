"""numpy backs the matrix kernel of the variational solvers only (laxoleinik,
characteristics): ``import shocklab``, ``shocklab.legendre``, the tracker
commands of the CLI and its ``dual`` command run without loading it, and the
first use of a kernel name loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

tmp = Path(sys.argv[1])
import shocklab
from shocklab import cli

flux = tmp / "flux.json"
flux.write_text(json.dumps({"breakpoints": [-3, 0, 3], "values": [4.5, 0, 4.5]}))
for name in ("burgers_shock", "double_well_i"):
    (tmp / f"{name}.json").write_text(json.dumps({"preset": name}))
runs = [
    ["solve", "--preset", "neg_cubic_ii1", "--out", str(tmp / "out")],
    ["check", "--preset", "counterexample_1"],
    ["certify", "--preset", "burgers_shock"],
    ["riemann", "--flux", str(flux), "--left", "1", "--right", "-1"],
    ["batch", str(tmp / "burgers_shock.json"), str(tmp / "double_well_i.json"),
     "--out", str(tmp / "batch")],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        codes.append(cli.main(argv))
tracker = "numpy" in sys.modules
shocklab.r_curve
by_name = "numpy" in sys.modules
scope = {}
exec("from shocklab import *", scope)
star = sorted(k for k in scope if k != "__builtins__") == sorted(shocklab.__all__)
print(json.dumps({"codes": codes, "tracker": tracker, "by_name": by_name, "star": star}))
"""


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_tracker_commands_leave_numpy_unloaded(tmp_path):
    out = json.loads(_run(SCRIPT, str(tmp_path)))
    assert out == {"codes": [0, 3, 0, 0, 0], "tracker": False, "by_name": True, "star": True}


def test_dual_command_leaves_numpy_unloaded(tmp_path):
    flux = tmp_path / "flux.json"
    flux.write_text('{"breakpoints": [-2, 0, 2], "values": [2, 0, 2]}')
    out = _run("import sys; from shocklab import cli; cli.main(['dual', '--flux', sys.argv[1]]);"
               "print('numpy' in sys.modules)", str(flux))
    assert out.splitlines() == ['{"breakpoints": [-1.0, 1.0], "values": [-0.0, 0.0]}', "False"]

