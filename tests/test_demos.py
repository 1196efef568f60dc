"""Each demo runs as a script, exits 0 and prints exactly its recorded output.

The digests are sha256 of each demo's standard output.  Every artifact of the
library is byte-reproducible, so a change of output is a change of behaviour:
re-record a digest only with a stated reason.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_riemann_fans.py": "1110beb1fc1bc6ef0031971fa6b19b96b12d7fba130b3bade340ffa32e3f28d8",
    "02_front_tracking.py": "c487fe2216396a754b7c808924368ac2fb6c00d3cd2e07504fc7c43d80aafa9d",
    "03_duality.py": "af85ef75ff49d81e7912f229e33242f5d74480faec800fbff3c8d9a9e6c5e515",
    "04_cross_check.py": "ed9d01472aa58f59c823856429da82f319ee8f2e866e3540ace4257980f08d18",
    "05_certificates.py": "16a067b295a687e02be6ea1d57e16989074a8b183426dd929e3386db2adb5fa3",
    "06_counterexamples.py": "88311b52abd34500a34104e723a28efcb62179fe744db315d348a1ff2273fa6a",
    "07_r_curves.py": "a12f03f9054cc6618b5745be6bf4b6608ffd830b9a5075b0dde376fddd0b788e",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[name]
    assert not any(tmp_path.iterdir())
