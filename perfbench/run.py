"""selkern benchmark: one workload, one seed, one run.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a selkern checkout.  Each workload runs in fresh
worker processes (perfbench/worker.py) with BLAS pinned to one thread, so
peak memory is the workload's own.  With --trace 0 the run reports the
end-to-end metrics, measured with tracing off; with --trace 1 it makes a
separate traced run and reports per-layer metrics.  The last line of
standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Per-run records and spans are written under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
# A run must end within 180 s, so every worker shares one deadline.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def _worker(args: list[str], deadline: float) -> float:
    """Start a worker, wait for it, and return its set-up time in seconds.

    Set-up time runs from just before the process is started to the READY
    stamp the worker prints once its inputs exist.  time.monotonic reads
    the system-wide monotonic clock, so the two stamps are comparable.
    """
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running at the run deadline: {args}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {args}")
    stamps = [line.split()[1] for line in out.splitlines() if line.startswith("READY ")]
    if len(stamps) != 1:
        raise BenchError(f"worker printed no READY stamp: {args}")
    return float(stamps[0]) - start


def _summary(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    xs = sorted(values)
    n = len(xs)
    tail = (f"p{100 * (n - 10) // n} {xs[n - 11]:.4g}" if n >= 11
            else "no percentile has 10 samples beyond it")
    return f"median {statistics.median(xs):.4g}, {tail}, {n} samples"


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    common = ["--workload", workload, "--seed", str(seed)]
    result_file = workdir / "result.json"
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setups = []
        if not trace:
            for i in range(SETUP_REPEATS - 1):
                setups.append(_worker([*common, "--phase", "setup", "--workdir", str(workdir / f"setup{i}"),
                                       "--result", str(result_file)], deadline))
        phase = ["--phase", "trace", "--trace-out", str(outdir / f"spans-{tag}.json")] if trace \
            else ["--phase", "measure"]
        setups.append(_worker([*common, *phase, "--workdir", str(workdir / "run"), "--seconds", str(seconds),
                               "--result", str(result_file)], deadline))
        record = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = record["ops"]
    failed = sum(1 for o in ops if o["problems"])
    timed = [o["wall_s"] for o in ops if o["kind"] == "timed"]
    timed_cpu = [o["cpu_s"] for o in ops if o["kind"] == "timed"]
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"  error_rate (ratio): {failed / len(ops):.4g} ({failed} failed of {len(ops)} operations)")
    if trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in record["per_layer"].items()}
        for name, m in metrics.items():
            print(f"  {name} ({m['unit']}): {m['value']:.6g}")
        print(f"  absent layers: {record['absent_layers'] or 'none'}")
        print(f"  missing wrap sites: {record['missing_sites'] or 'none'}")
        for err in record["counter_errors"]:
            print(f"  counter error: {err}")
    else:
        print(f"  setup_s (s): {_summary(setups)}")
        print(f"  op_s (s): {_summary(timed)}")
        print(f"  op_cpu_s (s, process CPU time, informational): {_summary(timed_cpu)}")
        if record["trials_per_op"]:
            print(f"  trials_per_s (1/s): {_summary([record['trials_per_op'] / t for t in timed])}")
        else:
            print(f"  test_s (s): {_summary(timed)}")
        print(f"  peak_rss_mb (MB): {record['peak_rss_mb']:.4g}")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(timed), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    out = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    (outdir / f"result-{tag}.json").write_text(json.dumps(
        {**out, "environment": record["environment"], "setup_samples": setups, "op_samples": timed,
         "op_cpu_samples": timed_cpu}, indent=1))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a name from perfbench/workloads.py")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "selkern" / "__init__.py").is_file():
        print(f"perfbench: no selkern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
