"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py --seeds 0-31 --size full
    python3 perfbench/record.py --seeds 0 --size tiny

Runs the operation of every workload once per seed with the current
program, checks the invariants, and merges the summaries (event-log and
report digests, R-curve positions) into perfbench/reference.json together
with the machine they were recorded on.  Re-record only when a change is
meant to alter the outputs, and say which bytes changed and why.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def record_seed(workload, seed: int, size: str, workdir: Path):
    inputs = workload.setup(seed, size, workdir)
    workload.prepare(inputs)
    out = workload.run(inputs)
    summary = workload.summarize(inputs, out)
    errs = workload.invariants(inputs, out, summary)
    if errs:
        raise SystemExit(f"{workload.name} seed {seed}: {errs}")
    # 12 significant digits keep every float far inside the 1e-8 check tolerance
    return json.loads(json.dumps(summary), parse_float=lambda text: float(f"{float(text):.12g}"))


def dump(ref: dict) -> str:
    """Indented JSON with each flat list of numbers kept on one line."""
    text = json.dumps(ref, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]{}\"]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,7")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not (run.SRC / "shocklab" / "__init__.py").is_file():
        print(f"record: no shocklab sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    path = run.REFERENCE
    ref = json.loads(path.read_text()) if path.is_file() else {}
    ref["machine"] = run.machine()
    workdir = run.ROOT / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]()
            table = ref.setdefault(name, {}).setdefault(args.size, {})
            for seed in seed_list(args.seeds):
                table[str(seed)] = record_seed(workload, seed, args.size, workdir)
                print(f"recorded {name} seed {seed}", file=sys.stderr)
                tmp = path.with_suffix(".tmp")
                tmp.write_text(dump(ref))
                tmp.replace(path)           # readers never see a partial file
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
