"""Command-line interface: CSV ingestion, test/simulation drivers, and
schema-versioned result documents."""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .config import ESTIMATORS, METHODS, RunConfig
from .core import DataFormatError, DataShapeError, DegenerateSampleError, InsufficientScalesError
from .hsic import JointSample
from .selective import select_and_test
from .simulation import ProblemSpec, benchmark_trials, family_methods, run_trials

SCHEMA_VERSION = 1

RESULT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "config", "results"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["mmd-test", "hsic-test", "simulate", "benchmark"]},
        "config": {
            "type": "object",
            "required": ["seed", "method", "k", "alpha", "r", "replicates_per_scale"],
        },
        "inputs": {"type": "object"},
        "results": {
            "type": "object",
            "properties": {
                "selected": {"type": "array", "items": {"type": "integer"}},
                "feature_names": {"type": "array", "items": {"type": "string"}},
                "p_values": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
                "rejected": {"type": "array", "items": {"type": "boolean"}},
                "diagnostics": {"type": "array"},
                "summaries": {"type": "array"},
                "per_trial": {"type": "array"},
            },
        },
    },
}


def _parse_cell(cell: str, row_num: int, path: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataFormatError(f"{path}: non-numeric value {cell!r} in row {row_num}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"{path}: non-finite value {cell!r} in row {row_num}")
    return value


def load_csv(path: str) -> tuple[np.ndarray, list[str] | None]:
    """Read a rectangular numeric CSV and the names of its header row, None
    when it has none; a non-numeric first row is a header.

    Rows are numbered from 1 as they appear in the file; ragged,
    non-numeric or non-finite data rows are rejected by number.  One leading
    UTF-8 byte-order mark, as spreadsheet programs write, is skipped.
    """
    plain = _load_plain(path)
    if plain is not None:
        return plain
    rows, num = [], 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for num, row in enumerate(csv.reader(fh), start=1):
                if row:
                    rows.append((num, row))
        except csv.Error as exc:  # a field over `csv.field_size_limit`
            raise DataFormatError(f"{path}: row {num + 1}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    width = len(rows[0][1])
    first = rows[0][1]
    has_header = any(not _is_number(c) for c in first)
    names = [c.strip() for c in first] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise DataFormatError(f"{path}: no data rows")
    values = np.empty((len(data_rows), width))
    for out_idx, (num, row) in enumerate(data_rows):
        if len(row) != width:
            raise DataFormatError(f"{path}: ragged row {num} has {len(row)} cells, expected {width}")
        values[out_idx] = [_parse_cell(c, num, path) for c in row]
    return values, names


# Data-row bytes on which csv splitting plus float() and numpy's C reader
# agree: no quotes, spaces, underscores, or letters but the exponent's.  Both
# convert a cell with the same correctly rounded string-to-double routine.
_PLAIN_BYTES = b"0123456789+-.eE,\r\n"


def _load_plain(path: str) -> tuple[np.ndarray, list[str] | None] | None:
    """`load_csv`'s result from one numpy read of the data rows, when they
    hold only `_PLAIN_BYTES` and form a finite table as wide as the first row.
    Otherwise None, and `load_csv` reads the file by its csv path, which names
    the offending row."""
    with open(path, "rb") as fh:
        # One leading byte-order mark (codecs.BOM_UTF8), as "utf-8-sig" skips on the csv path.
        lines = [line for line in fh.read().removeprefix(b"\xef\xbb\xbf").splitlines() if line]
    # A quoted first cell may run over a line break; fields past the csv
    # module's size limit are an error there.  Only lines past it can hold one.
    limit = csv.field_size_limit()
    if not lines or b'"' in lines[0] or any(_longest_field(line) > limit for line in lines if len(line) > limit):
        return None
    try:
        first = lines[0].decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    has_header = any(not _is_number(c) for c in first)
    body = lines[1:] if has_header else lines
    if not body or b"".join(body).translate(None, _PLAIN_BYTES):
        return None
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != len(first) or not np.isfinite(values).all():
        return None
    return values, [c.strip() for c in first] if has_header else None


def _longest_field(line: bytes) -> int:
    """Length of the longest comma-separated field of ``line``, in bytes."""
    commas = np.flatnonzero(np.frombuffer(line, np.uint8) == ord(","))
    return int(np.diff(commas, prepend=-1, append=len(line)).max()) - 1


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_csv(path: str, values: np.ndarray, names: list[str]) -> None:
    """Write a matrix as CSV with 17 significant digits (lossless round trip)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if len(names) != values.shape[1]:
        raise DataShapeError("one column name per column required")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in values:
            writer.writerow([f"{v:.17g}" for v in row])


def split_response(values: np.ndarray, names: list[str] | None, response: str):
    """Split a table into covariates and the named response column.

    ``names`` None (a file without a header row) names the columns f0, f1, ...
    """
    names = [f"f{i}" for i in range(values.shape[1])] if names is None else names
    if names.count(response) != 1:
        raise DataFormatError(f"response column {response!r} must name exactly one column (have {names})")
    idx = names.index(response)
    keep = [j for j in range(values.shape[1]) if j != idx]
    return values[:, keep], [names[j] for j in keep], values[:, idx]


def _sanitize(obj):
    """Make a document JSON-serializable and deterministic: numpy scalars to
    python, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def render_document(doc: dict) -> str:
    return json.dumps(_sanitize(doc), sort_keys=True, indent=2) + "\n"


def _emit(table: list[str], doc: dict, out_path: str | None) -> int:
    """Print the ``table`` lines and write the document to ``out_path``, or
    else to stdout, with the table on stderr so that stdout is the JSON alone."""
    print(*table, sep="\n", file=sys.stdout if out_path else sys.stderr)
    text = render_document(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _report_document(command: str, inputs: dict, report, config: RunConfig) -> dict:
    rejected = report.rejected(config.alpha)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": report.config,
        "inputs": inputs,
        "results": {
            "method": report.method,
            "selected": list(report.selected),
            "feature_names": [report.feature_names[i] for i in report.selected],
            "scores": [float(report.scores[i]) for i in report.selected],
            "p_values": [float(p) for p in report.p_values],
            "rejected": rejected,
            "diagnostics": report.diagnostics,
        },
    }


def _report_table(report, alpha: float) -> list[str]:
    table = [f"{report.method}: top-{len(report.selected)} features at alpha = {alpha}",
             f"{'feature':>10} {'name':>12} {'score':>12} {'p-value':>10} {'reject':>7}"]
    for i, p in zip(report.selected, report.p_values):
        score = float(report.scores[i])
        mark = "yes" if p < alpha else "no"
        table.append(f"{i:>10d} {report.feature_names[i]:>12} {score:>12.5g} {p:>10.4g} {mark:>7}")
    return table


def _summary_table(summaries) -> list[str]:
    return [f"{'method':>12} {'tpr':>8} {'fpr':>8} {'tpr_se':>8} {'fpr_se':>8} {'trials':>7}"] + [
        f"{s.method:>12} {s.tpr:>8.3f} {s.fpr:>8.3f} {_fmt(s.tpr_se):>8} {_fmt(s.fpr_se):>8} {s.trials:>7d}"
        for s in summaries]


def _fmt(v: float) -> str:
    return "-" if v is None or (isinstance(v, float) and math.isnan(v)) else f"{v:.3f}"


def _resolve_seed(args, parser, required_flag: bool = False) -> int:
    if args.seed is not None:
        return args.seed
    if required_flag:
        parser.error("--seed is required for this subcommand")
    env = os.environ.get("SELKERN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            parser.error(f"SELKERN_SEED must be an integer, got {env!r}")
    parser.error("--seed not given and SELKERN_SEED not set")
    raise AssertionError("unreachable")


def _config_from_args(args, parser, **overrides) -> RunConfig:
    """RunConfig from the flags given, whose dests are its field names; a
    flag not given is absent from ``args``, so RunConfig sets its default."""
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)
              if f.name not in overrides and hasattr(args, f.name)}
    try:
        return RunConfig(**values, **overrides)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _add_common(parser: argparse.ArgumentParser, k_required: bool) -> None:
    # The RunConfig flags leave their defaults to RunConfig.
    unset = argparse.SUPPRESS
    parser.add_argument("--k", type=int, required=k_required, default=unset, help="number of features to select")
    parser.add_argument("--alpha", type=float, default=unset)
    parser.add_argument("--r", type=float, default=unset, help="design size ratio l = round(r*n)")
    parser.add_argument("--estimator", choices=ESTIMATORS, default=unset, help="'block': HSIC methods only")
    parser.add_argument("--block-size", type=int, default=unset, dest="block_size")
    parser.add_argument("--scales", type=int, default=unset, dest="scale_count", help="number of bootstrap scales")
    parser.add_argument("--scale-low", type=float, default=unset, dest="scale_low")
    parser.add_argument("--scale-high", type=float, default=unset, dest="scale_high")
    parser.add_argument("--replicates", type=int, default=unset, dest="replicates_per_scale", help="bootstrap replicates per scale")
    parser.add_argument("--kernel", choices=["gaussian", "imq"], default=unset, dest="kernel_family")
    parser.add_argument("--bandwidth", type=float, default=unset, help="fixed Gaussian bandwidth (default: median heuristic)")
    parser.add_argument("--imq-offset", type=float, default=unset, dest="imq_offset")
    parser.add_argument("--shared-bandwidth", action="store_true", default=unset, dest="shared_bandwidth")
    parser.add_argument("--threads", type=int, default=unset, help="worker threads for the trials of simulate and benchmark (no effect on single tests)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="write the result document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="selkern", description="Selective kernel tests for feature selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mmd = sub.add_parser("mmd-test", help="two-sample feature test from two CSV files")
    p_mmd.add_argument("--x", required=True, help="CSV of the first sample")
    p_mmd.add_argument("--y", required=True, help="CSV of the second sample")
    p_mmd.add_argument("--method", choices=["multi", "poly"], default="multi")
    _add_common(p_mmd, k_required=True)

    p_hsic = sub.add_parser("hsic-test", help="dependence feature test from one CSV with a response column")
    p_hsic.add_argument("--data", required=True, help="CSV with covariates and response")
    p_hsic.add_argument("--response", required=True, help="name of the response column")
    p_hsic.add_argument("--method", choices=["multi", "poly"], default="multi")
    _add_common(p_hsic, k_required=True)

    p_sim = sub.add_parser("simulate", help="multi-trial synthetic experiment")
    # The ProblemSpec flags leave their defaults to ProblemSpec.
    p_sim.add_argument("--problem", choices=["mean-shift", "logistic"], required=True, dest="kind")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--d", type=int, required=True)
    p_sim.add_argument("--shift", type=float, default=argparse.SUPPRESS)
    p_sim.add_argument("--informative", type=int, default=argparse.SUPPRESS)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--methods", nargs="+", default=None,
                       choices=list(METHODS),
                       help="methods to run (default: both for the problem)")
    _add_common(p_sim, k_required=False)

    p_bench = sub.add_parser("benchmark", help="fake-feature rediscovery benchmark on a labeled CSV")
    p_bench.add_argument("--data", required=True)
    p_bench.add_argument("--mode", choices=["mmd", "hsic"], required=True)
    p_bench.add_argument("--label", default=None, help="binary class column (mmd mode)")
    p_bench.add_argument("--response", default=None, help="response column (hsic mode)")
    p_bench.add_argument("--fakes", type=int, default=30)
    p_bench.add_argument("--n", type=int, default=None, help="rows per trial (default: all / per-class minimum)")
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--methods", nargs="+", default=None,
                         choices=list(METHODS))
    _add_common(p_bench, k_required=False)

    return parser


def _cmd_test(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    family = args.command.split("-")[0]
    if family == "mmd":
        x, names = load_csv(args.x)
        y, y_names = load_csv(args.y)
        if names is not None and y_names is not None:
            for a, b in zip(names, y_names):
                if a != b:
                    raise DataFormatError(f"column names differ: {args.x} has {a!r} where {args.y} has {b!r}")
        data, inputs = (x, y), {"x": args.x, "y": args.y}
    else:
        values, columns = load_csv(args.data)
        X, names, y = split_response(values, columns, args.response)
        data, inputs = JointSample(X, y[:, None]), {"data": args.data, "response": args.response}
    config = _config_from_args(args, parser, seed=seed, method=f"{args.method}-{family}")
    report = select_and_test(data, config, feature_names=names)
    return _emit(_report_table(report, config.alpha), _report_document(args.command, inputs, report, config),
                 args.out)


def _emit_summaries(command: str, inputs: dict, summaries, out_path: str | None) -> int:
    """Emit the summary table and the document of a multi-trial command."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": summaries[0].config,
        "inputs": inputs,
        "results": {
            "summaries": [{k: v for k, v in asdict(s).items() if k != "records"} for s in summaries],
            "per_trial": [{"method": s.method, **rec} for s in summaries for rec in s.records],
        },
    }
    return _emit(_summary_table(summaries), doc, out_path)


def _cmd_simulate(args, parser) -> int:
    seed = _resolve_seed(args, parser, required_flag=True)
    problem = ProblemSpec(**{f.name: getattr(args, f.name) for f in fields(ProblemSpec)
                             if hasattr(args, f.name)})
    methods = args.methods or family_methods(problem.family)
    config = _config_from_args(args, parser, seed=seed, method=methods[0])
    summaries = run_trials(problem, methods, args.trials, config)
    spec = asdict(problem)
    inputs = {"problem": spec.pop("kind"), **spec, "trials": args.trials}
    return _emit_summaries("simulate", inputs, summaries, args.out)


def _cmd_benchmark(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    if args.fakes < 0:
        parser.error("--fakes must be >= 0")
    values, names = load_csv(args.data)
    flag = "label" if args.mode == "mmd" else "response"
    column = getattr(args, flag)
    if not column:
        parser.error(f"--{flag} is required in {args.mode} mode")
    features, _, split = split_response(values, names, column)
    methods = args.methods or family_methods(args.mode)
    config = _config_from_args(args, parser, seed=seed, method=methods[0])
    summaries = benchmark_trials(features, split, args.mode, methods, args.trials, config, args.n, args.fakes)
    inputs = {"data": args.data, "mode": args.mode, "column": column, "fakes": args.fakes, "n": args.n,
              "trials": args.trials}
    return _emit_summaries("benchmark", inputs, summaries, args.out)


_HANDLERS = {
    "mmd-test": _cmd_test,
    "hsic-test": _cmd_test,
    "simulate": _cmd_simulate,
    "benchmark": _cmd_benchmark,
}


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep freed arrays of up to 32 MiB mapped for reuse.

    By default glibc serves a block above its mmap threshold (128 KiB, rising
    to the largest such block freed) by a mapping of its own, which free
    unmaps, and hands free heap top past twice that threshold back to the
    system, so numpy's temporaries were faulted in afresh, page by page, on
    each use.  A no-op on other C libraries; process-wide, so set once."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc without the name
        return
    if glibc:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks up to 32 MiB come from the heap
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: up to 64 MiB of free heap top stays mapped


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as ``warning: <message>`` on stderr, without the
    package's file, line and source that `warnings` would print."""
    print(f"warning: {message}", file=sys.stderr)


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 2 on usage errors, 1 on data errors.

    Warnings a command raises are printed as ``warning: <message>`` lines."""
    import warnings

    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return _HANDLERS[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataFormatError, DataShapeError, DegenerateSampleError, InsufficientScalesError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
