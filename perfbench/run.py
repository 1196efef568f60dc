"""shocklab benchmark: one workload, one fresh process, closed loop.

    python3 perfbench/run.py --workload front_tracking --seed 0 --seconds 30 --trace 0

One caller issues operations back to back for ``--seconds`` seconds of timed
work, checks every output outside the timed region, and prints the metrics
by name and unit.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
operations alternate untraced and traced, the metrics are the per-layer
ones, and the spans are written to ``.perfbench_out/spans-<workload>.csv``.  Workloads, metrics and bounds are
listed in BENCHMARK.json; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# single-threaded: keep numpy's BLAS from starting worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

from workloads import WORKLOADS  # noqa: E402  (after the thread settings)
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 5          # set-ups per run: this process plus 4 fresh ones
REFERENCE = HERE / "reference.json"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the benchmark's own tests")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="recorded outputs to check against")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def timed_setup(workload, seed: int, size: str, workdir: Path):
    """Import shocklab and build every input; returns (seconds, inputs)."""
    t0 = time.perf_counter()
    import shocklab

    inputs = workload.setup(seed, size, workdir)
    secs = time.perf_counter() - t0
    if not Path(shocklab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported shocklab from {shocklab.__file__}, not {SRC}")
    return secs, inputs


def fresh_setups(args, n: int) -> list[float]:
    """Set-up times of n fresh processes, one after another."""
    out = []
    for _ in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--size", args.size]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return 100 * rank // n, sorted(samples)[rank - 1]


def load_reference(path: Path, workload: str, size: str, seed: int):
    try:
        ref = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"perfbench: cannot read reference {path}: {e}")
    return ref.get(workload, {}).get(size, {}).get(str(seed))


class Loop:
    """The closed loop: runs operations, times them, checks their outputs."""

    def __init__(self, workload, inputs, expected, tracer: Tracer | None):
        self.w = workload
        self.inputs = inputs
        self.expected = expected
        self.tracer = tracer
        self.first = None                    # first summary, for determinism
        self.timed = {False: [], True: []}   # traced? -> [(wall, cpu)]
        self.traced_ops: list[int] = []
        self.attempted = 0
        self.failed = 0

    def op(self, traced: bool) -> None:
        """One timed operation, then its output checks."""
        self.w.prepare(self.inputs)
        op_id = self.attempted
        self.attempted += 1
        if traced:
            self.tracer.begin_op(op_id)
            self.traced_ops.append(op_id)
            self.tracer.install()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = self.w.run(self.inputs)
            err = None
        except Exception:
            out, err = None, traceback.format_exc()
        w1, c1 = time.perf_counter(), time.process_time()
        if traced:
            self.tracer.uninstall()
        self.timed[traced].append((w1 - w0, c1 - c0))
        if err is not None:
            errs = [f"operation raised:\n{err}"]
        else:
            summary = self.w.summarize(self.inputs, out)
            errs = self.w.invariants(self.inputs, out, summary)
            if self.first is None:
                self.first = summary
            errs += self.w.compare(summary, self.first if self.expected is None else self.expected)
            if traced:
                for name, value in self.w.counters(self.inputs, out).items():
                    self.tracer.add(name, value)
        if errs:
            self.failed += 1
        for e in errs:
            print(f"CHECK FAILED ({self.w.name}, operation {op_id}): {e}", file=sys.stderr)

    def busy(self) -> float:
        return sum(w for runs in self.timed.values() for w, _ in runs)


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def print_table(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shocklab" / "__init__.py").is_file():
        print(f"perfbench: no shocklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            secs, _ = timed_setup(workload, args.seed, args.size, workdir)
            print(json.dumps({"setup_s": secs}))
            return 0
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: Path) -> int:
    setup_here, inputs = timed_setup(workload, args.seed, args.size, workdir)
    expected = load_reference(args.reference, args.workload, args.size, args.seed)
    info = machine()
    print(f"# {args.workload} seed={args.seed} size={args.size} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={info['nproc']} python={info['python']} numpy={info['numpy']}")
    if expected is None:
        print(f"# no recorded reference for seed {args.seed}: checking invariants and "
              "run-to-run determinism only", file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload.setup(args.seed, args.size, workdir)   # traced set-up, untimed
        tracer.uninstall()
    loop = Loop(workload, inputs, expected, tracer)
    modes = (False, True) if args.trace else (False,)
    while loop.busy() < args.seconds or not loop.timed[False]:
        for traced in modes:
            loop.op(traced)

    untraced = loop.timed[False]
    walls = [w for w, _ in untraced]
    solve_s = statistics.median(walls)
    if args.trace:
        traced_s = statistics.median(w for w, _ in loop.timed[True])
        metrics = tracer.layer_metrics(loop.traced_ops)
        metrics["trace.overhead_s"] = (traced_s - solve_s, "s")
        metrics["trace.overhead_ratio"] = ((traced_s - solve_s) / solve_s, "ratio")
        print(f"# median operation: untraced {solve_s:.6g} s, traced {traced_s:.6g} s")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.csv")
        print("# self time per traced operation: calls, total s, self s")
        n = len(loop.traced_ops)
        for name, (calls, total, own) in sorted(tracer.self_times(loop.traced_ops).items()):
            print(f"{name:44s} {calls / n:12.1f} {total / n:12.6f} {own / n:12.6f}")
        print_table("per-layer metrics", metrics)
    else:
        setups = [setup_here] + fresh_setups(args, SETUP_SAMPLES - 1)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (solve_s, "s"),
            "solve_cpu_s": (statistics.median(c for _, c in untraced), "s"),
            "ops_per_s": (len(walls) / sum(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print_table("end-to-end metrics", metrics)
        high = tail(walls)
        print(f"{'solve_s.samples':44s} {len(walls):16d} count")
        if high is None:
            print(f"{'solve_s.tail':44s} {'n/a':>16s} (needs 11 or more samples)")
        else:
            print(f"{'solve_s.p' + str(high[0]):44s} {high[1]:16.6g} s")
    print(f"{'failed_ratio':44s} {loop.failed / loop.attempted:16.6g} ratio")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
