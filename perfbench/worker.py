"""Runs one workload in a fresh process.

Phases:
  setup    make the inputs, print a READY stamp, exit (set-up time is
           measured by the parent from process start to that stamp);
  measure  set up, warm up, then run timed operations with tracing off;
  trace    set up, warm up, then alternate untraced and traced operations.

The result is written as JSON to --result.  Usage (normally via run.py):
  python3 perfbench/worker.py --workload NAME --seed N --phase PHASE \
      --workdir DIR --seconds S --result FILE
"""
from __future__ import annotations

import os

# BLAS / OpenMP pools are sized when numpy is imported; pin them first.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({v: "1" for v in BLAS_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import selkern.cli  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def run_op(op: workloads.Operation, tracer: tracing.Tracer | None = None) -> tuple[float, float, list[str]]:
    """Run one CLI invocation; return its wall and CPU time and any violations.

    Only the ``cli_main`` call is timed (and, with a tracer, spanned); the
    checks run afterwards.
    """
    op.out.unlink(missing_ok=True)
    around = tracer.operation if tracer is not None else contextlib.nullcontext
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), around():
            code = selkern.cli.cli_main(list(op.argv))
        failure = [f"exit code {code}"] if code != 0 else []
    except Exception:  # a raised exception is a failed operation, not a crash
        failure = ["raised: " + traceback.format_exc(limit=3)]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if failure:
        return wall, cpu, failure
    try:
        doc = json.loads(op.out.read_text(encoding="utf-8"))
        if op.kind == "report":
            problems = checks.check_report(doc, selkern.cli.RESULT_SCHEMA, op.k, op.d, workloads.ALPHA)
            scores = tracer.last_scores() if tracer is not None else None
            if scores is not None:
                problems += checks.check_scores(doc, scores)
        else:
            problems = checks.check_simulation(doc, selkern.cli.RESULT_SCHEMA, op.trials,
                                               op.methods, op.k, op.d)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"document unreadable or malformed: {exc!r}"]
    return wall, cpu, problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", required=True, choices=["setup", "measure", "trace"])
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace-out", type=Path, default=None)
    args = p.parse_args()

    warmup, main_op = workloads.prepare(args.workload, args.seed, args.workdir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.phase == "setup":
        return 0

    ops: list[dict] = []

    def record(kind: str, wall: float, cpu: float, problems: list[str]) -> None:
        ops.append({"kind": kind, "wall_s": wall, "cpu_s": cpu, "problems": problems})
        for msg in problems:
            print(f"perfbench: {args.workload} {kind} operation failed: {msg}", file=sys.stderr)

    record("warmup", *run_op(warmup))
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        record("timed", *run_op(main_op))
        if args.phase == "trace":
            with tracer.installed():
                record("traced", *run_op(main_op, tracer))
        # Stop before an operation of the same length would overrun.
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "phase": args.phase,
        "ops": ops,
        "trials_per_op": main_op.trials,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if args.phase == "trace":
        walls = lambda kind: [o["wall_s"] for o in ops if o["kind"] == kind]  # noqa: E731
        per_layer = tracing.layer_metrics(tracer)
        per_layer["trace.overhead_s"] = (
            statistics.median(walls("traced")) - statistics.median(walls("timed")), "s")
        result["per_layer"] = per_layer
        result["absent_layers"] = tracer.absent()
        result["missing_sites"] = sorted(tracer.missing_sites)
        result["counter_errors"] = tracer.counter_errors
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(
                {"environment": result["environment"], "spans": tracer.to_json()}))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
