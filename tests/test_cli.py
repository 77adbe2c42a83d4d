import codecs
import csv
import json
import math
import os
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

import selkern
from selkern import DataFormatError, JointSample, RunConfig, derive_rng, select_and_test
from selkern.cli import (
    RESULT_SCHEMA,
    _config_from_args,
    build_parser,
    cli_main,
    load_csv,
    render_document,
    save_csv,
    split_response,
)


@pytest.fixture
def sample_csvs(tmp_path):
    rng = derive_rng(100)
    x = rng.standard_normal((40, 6))
    y = rng.standard_normal((40, 6))
    y[:, 0] += 1.0
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    save_csv(xp, x, [f"c{i}" for i in range(6)])
    save_csv(yp, y, [f"c{i}" for i in range(6)])
    return str(xp), str(yp), x, y


def test_csv_round_trip(tmp_path):
    rng = derive_rng(0)
    values = rng.standard_normal((12, 4)) * 1e3
    path = tmp_path / "m.csv"
    save_csv(path, values, ["a", "b", "c", "d"])
    loaded, names = load_csv(str(path))
    assert names == ["a", "b", "c", "d"]
    assert np.abs(loaded - values).max() <= 1e-12
    assert np.array_equal(loaded, values)  # 17 significant digits are lossless
    # Every spelling float() accepts reads as float() reads it, bit for bit.
    cells = ["1_000", " 1.5 ", "+1e5", "\uff11\uff12", "-0", ".5", "5.", "1E-400"]
    path.write_text("a,b,c,d,e,f,g,h\n" + ",".join(cells) + "\n", encoding="utf-8")
    loaded, _ = load_csv(str(path))
    assert loaded.view(np.int64).tolist() == [np.array([float(c) for c in cells]).view(np.int64).tolist()]


def test_csv_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    values, names = load_csv(str(path))
    assert names is None  # no header row was read
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("text, names", [
    ("1.5,2.5\n3.5,4.5\n5.5,6.5\n", None),
    ("y,a,b\n1.5,2.5,3.5\n4.5,5.5,6.5\n", ["y", "a", "b"]),
    ('"y",a,b\n1.5,2.5,3.5\n4.5,5.5,6.5\n', ["y", "a", "b"]),
], ids=["plain-no-header", "plain-header", "csv-path-header"])
def test_csv_skips_utf8_byte_order_mark(tmp_path, text, names):
    # Spreadsheet programs save "CSV UTF-8" with a leading byte-order mark,
    # which used to become part of the first cell: a header-less file lost
    # its first row to the header, and a header misnamed its first column.
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    values, got = load_csv(str(path))
    assert got == names
    assert values.tolist() == [[1.5, 2.5], [3.5, 4.5], [5.5, 6.5]] if names is None else [[1.5, 2.5, 3.5], [4.5, 5.5, 6.5]]


def test_hsic_test_finds_response_after_byte_order_mark(tmp_path, capsys):
    rng = derive_rng(111)
    X = rng.standard_normal((30, 3))
    path = tmp_path / "bom.csv"
    save_csv(path, np.column_stack([X[:, 0] + rng.standard_normal(30), X]), ["y", "a", "b", "c"])
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    argv = ["hsic-test", "--data", str(path), "--response", "y", "--k", "1", "--seed", "1",
            "--replicates", "200", "--out", str(tmp_path / "out.json")]
    assert cli_main(argv) == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "out.json").read_text())["results"]["feature_names"][0] in {"a", "b", "c"}


def test_csv_ragged_row_names_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_csv(str(path))


def test_csv_non_numeric_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_csv(str(path))


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(str(path))


def test_csv_non_finite_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("a,b\n1,2\nnan,4\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_csv(str(path))


@pytest.mark.parametrize("cell", ["1" * 200_000, "x" * 200_000], ids=["numeric", "text"])
def test_csv_field_over_the_size_limit_names_row(tmp_path, capsys, cell):
    # A numeric cell as well as a non-numeric one: numpy's reader would take
    # the first, so both readers must leave it to the csv module's limit.
    path = tmp_path / "long.csv"
    path.write_text(f"y,a\n1,2\n3,{cell}\n")
    with pytest.raises(DataFormatError, match=r"long\.csv: row 3: field larger than field limit"):
        load_csv(str(path))
    assert cli_main(["hsic-test", "--data", str(path), "--response", "y", "--k", "1", "--seed", "1"]) == 1
    assert "row 3: field larger than field limit" in capsys.readouterr().err


def test_csv_lines_over_the_field_limit_load_through_numpy(tmp_path):
    # 8000 cells of 17 digits make lines longer than the csv module's field
    # limit, though no field is; numpy's reader takes them.
    values = np.random.default_rng(3).random((3, 8000))
    path = tmp_path / "wide.csv"
    save_csv(path, values, [f"c{i}" for i in range(8000)])
    assert max(map(len, path.read_bytes().splitlines())) > csv.field_size_limit()
    with mock.patch.object(csv, "reader", side_effect=AssertionError("csv module path taken")):
        got, names = load_csv(str(path))
    assert names == [f"c{i}" for i in range(8000)]
    assert got.view(np.int64).tolist() == values.view(np.int64).tolist()


def _csv_module_loader(path):
    """Oracle: `load_csv` as it was when every file went through the csv module."""

    def parse(cell, row_num):
        try:
            value = float(cell)
        except ValueError:
            raise DataFormatError(f"{path}: non-numeric value {cell!r} in row {row_num}") from None
        if not math.isfinite(value):
            raise DataFormatError(f"{path}: non-finite value {cell!r} in row {row_num}")
        return value

    def is_number(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(num, row) for num, row in enumerate(csv.reader(fh), start=1) if row]
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    width = len(rows[0][1])
    first = rows[0][1]
    has_header = any(not is_number(c) for c in first)
    names = [c.strip() for c in first] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise DataFormatError(f"{path}: no data rows")
    try:
        values = np.array([row for _, row in data_rows], dtype=float)
    except ValueError:
        values = None
    if values is None or values.shape != (len(data_rows), width) or not np.isfinite(values).all():
        values = np.empty((len(data_rows), width))
        for out_idx, (num, row) in enumerate(data_rows):
            if len(row) != width:
                raise DataFormatError(f"{path}: ragged row {num} has {len(row)} cells, expected {width}")
            values[out_idx] = [parse(c, num) for c in row]
    return values, names


# Cells of three kinds of file: numbers as repr writes them; spellings made
# only of digits, signs, ".", "e" and "E" (numpy's reader sees these rows);
# and anything, for the csv-module path.
_REPR_CELLS = st.floats(-1e6, 1e6).map(repr)
_NUMERIC_BYTE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.17g}"),
    st.sampled_from(["+1.5", "1.", ".5", "-.5e-3", "1E5", "-0", "0", "1e400", "-1e400", "", "e", "-", ".", "1e"]),
)
_ANY_CELLS = _NUMERIC_BYTE_CELLS | st.sampled_from(
    ["nan", "Infinity", "-inf", "1_0", " 1.5", "1.5 ", '"1.5"', '"1,5"', "x", "\u00e9"])
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(st.sampled_from(["a", " b ", "c1", "1", '"q"']),
                                            min_size=width, max_size=width))))
    cells = draw(st.sampled_from([_REPR_CELLS, _NUMERIC_BYTE_CELLS, _ANY_CELLS]))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["empty", "blank", "ragged", "trailing"]))
        if kind == "empty":
            lines.append("")
        elif kind == "blank":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            n = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            row = ",".join(draw(st.lists(cells, min_size=max(n, 0), max_size=max(n, 0))))
            lines.append(row + ("," if kind == "trailing" else ""))
    newline = draw(_NEWLINES)
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
def test_load_csv_matches_csv_module_oracle(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    try:
        expected = _csv_module_loader(path)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            load_csv(path)
        assert str(got.value) == str(exc)
        return
    values, names = load_csv(path)
    assert names == expected[1]
    assert values.shape == expected[0].shape
    assert values.view(np.int64).tolist() == expected[0].view(np.int64).tolist()


def test_cli_loads_no_scipy(sample_csvs, tmp_path):
    # The runtime needs numpy alone; importing scipy.special took most of
    # every command's start-up.  Checked after the import and again after a
    # Multi and a Poly test, so a function-local import fails too.
    xp, yp, _, _ = sample_csvs
    src = str(Path(selkern.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import json, sys, selkern.cli\n"
        "loaded = [list(sys.modules)]\n"
        "for method in ('multi', 'poly'):\n"
        "    argv = ['mmd-test', '--x', sys.argv[1], '--y', sys.argv[2], '--k', '2', '--seed', '1',\n"
        "            '--replicates', '200', '--method', method, '--out', sys.argv[3]]\n"
        "    assert selkern.cli.cli_main(argv) == 0\n"
        "    loaded.append(list(sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    argv = [sys.executable, "-c", code, xp, yp, str(tmp_path / "out.json")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
    snapshots = json.loads(out.stdout.splitlines()[-1])
    assert len(snapshots) == 3
    for loaded in snapshots:
        assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="sets glibc's allocator only")
def test_cli_keeps_freed_memory_mapped(tmp_path):
    # Freed temporaries that glibc hands back to the system are faulted in
    # again, page by page, by the next command: this simulate took about 5.6k
    # minor faults per call that way, and under 20 with them kept mapped.
    src = str(Path(selkern.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    code = (
        "import resource, sys, selkern.cli\n"
        "argv = ['simulate', '--problem', 'logistic', '--n', '400', '--d', '50', '--k', '30', '--trials', '2',\n"
        "        '--methods', 'multi-hsic', 'poly-hsic', '--threads', '1', '--seed', '1', '--out', sys.argv[1]]\n"
        "for _ in range(2):\n"
        "    assert selkern.cli.cli_main(argv) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert selkern.cli.cli_main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    argv = [sys.executable, "-c", code, str(tmp_path / "out.json")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
    faults = int(out.stdout.splitlines()[-1])
    assert faults < 500, faults


@pytest.mark.parametrize("module", ["selkern", "selkern.cli"])
def test_python_m_selkern_runs_the_cli(tmp_path, module):
    src = str(Path(selkern.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    missing = str(tmp_path / "missing.csv")
    argv = [sys.executable, "-m", module, "mmd-test", "--x", missing, "--y", missing, "--k", "1", "--seed", "1"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error: ") and "missing.csv" in out.stderr


def test_all_lists_exactly_the_public_names():
    # __init__ names each export twice, in its import and in __all__.
    public = {name for name, value in vars(selkern).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(selkern.__all__) == sorted(public)
    namespace: dict = {}
    exec("from selkern import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def test_split_response_missing_column(tmp_path):
    values = np.ones((3, 2))
    with pytest.raises(DataFormatError):
        split_response(values, ["a", "b"], "y")


def test_duplicated_response_name_is_data_error(tmp_path, capsys):
    rng = derive_rng(106)
    labels = (np.arange(40) % 2).astype(float)
    table = np.column_stack([rng.standard_normal((40, 2)), labels, rng.standard_normal(40)])
    path = tmp_path / "dup.csv"
    save_csv(path, table, ["a", "b", "y", "y"])
    for argv in (["hsic-test", "--data", str(path), "--response", "y", "--k", "1"],
                 ["benchmark", "--data", str(path), "--mode", "mmd", "--label", "y", "--trials", "1"]):
        assert cli_main(argv + ["--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "error: response column 'y' must name exactly one column (have ['a', 'b', 'y', 'y'])" in err


def test_no_feature_columns_is_data_error(tmp_path, capsys):
    labels = (np.arange(20) % 2).astype(float)
    path = tmp_path / "only_response.csv"
    save_csv(path, labels[:, None], ["y"])
    for argv in (["hsic-test", "--data", str(path), "--response", "y", "--k", "1"],
                 ["benchmark", "--data", str(path), "--mode", "mmd", "--label", "y", "--fakes", "0",
                  "--k", "1", "--trials", "1"]):
        assert cli_main(argv + ["--seed", "1"]) == 1, argv[0]
        assert "error: need at least one feature column\n" in capsys.readouterr().err, argv[0]


@pytest.mark.parametrize("fakes", ["0", "3"])
@pytest.mark.parametrize("mode, flag", [("mmd", "--label"), ("hsic", "--response")])
def test_benchmark_without_feature_columns_is_data_error(tmp_path, capsys, mode, flag, fakes):
    # No --k: the missing columns are reported, not the k they would default.
    labels = (np.arange(20) % 2).astype(float)
    path = tmp_path / "only_label.csv"
    save_csv(path, labels[:, None], ["y"])
    argv = ["benchmark", "--data", str(path), "--mode", mode, flag, "y", "--fakes", fakes,
            "--trials", "1", "--seed", "1"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: need at least one feature column\n"


def test_negative_fakes_is_usage_error(tmp_path, capsys):
    labels = (np.arange(20) % 2).astype(float)
    path = tmp_path / "bench.csv"
    save_csv(path, np.column_stack([derive_rng(112).standard_normal(20), labels]), ["a", "cls"])
    argv = ["benchmark", "--data", str(path), "--mode", "mmd", "--label", "cls", "--fakes", "-1",
            "--trials", "1", "--seed", "1"]
    assert cli_main(argv) == 2
    assert "error: --fakes must be >= 0" in capsys.readouterr().err


def test_zero_trials_is_data_error(tmp_path, capsys):
    rng = derive_rng(108)
    labels = (np.arange(20) % 2).astype(float)
    path = tmp_path / "bench.csv"
    save_csv(path, np.column_stack([rng.standard_normal((20, 2)), labels]), ["a", "b", "cls"])
    for argv in (["simulate", "--problem", "logistic", "--n", "20", "--d", "3", "--informative", "1"],
                 ["benchmark", "--data", str(path), "--mode", "mmd", "--label", "cls"]):
        assert cli_main(argv + ["--trials", "0", "--seed", "1"]) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.err == "error: trials must be >= 1\n" and captured.out == "", argv[0]


def test_too_few_scales_is_data_error(tmp_path, capsys):
    rng = derive_rng(107)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    save_csv(xp, rng.standard_normal((50, 3)), ["a", "b", "c"])
    save_csv(yp, rng.standard_normal((50, 3)), ["a", "b", "c"])
    code = cli_main(["mmd-test", "--x", str(xp), "--y", str(yp), "--k", "1", "--seed", "1",
                     "--scales", "3", "--scale-low", "0.99", "--scale-high", "1.0"])
    assert code == 1
    assert "error: n = 50 yields fewer than 3 distinct scales\n" in capsys.readouterr().err


def test_too_few_scales_in_a_trial_is_data_error(capsys):
    # Raised on a worker thread of the trial pool.
    code = cli_main(["simulate", "--problem", "logistic", "--n", "8", "--d", "3", "--informative", "1",
                     "--trials", "1", "--seed", "1", "--scale-low", "0.9", "--scale-high", "1.0"])
    assert code == 1
    assert "error: n = 8 yields fewer than 3 distinct scales\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, method, k", [
    (["mmd-test", "--x", "x.csv", "--y", "y.csv", "--k", "3"], "multi-mmd", 3),
    (["hsic-test", "--data", "z.csv", "--response", "y", "--k", "3"], "multi-hsic", 3),
    (["simulate", "--problem", "logistic", "--n", "40", "--d", "4", "--trials", "1"], "multi-hsic", None),
    (["benchmark", "--data", "z.csv", "--mode", "mmd", "--trials", "1"], "multi-mmd", None),
])
def test_minimal_argv_takes_run_config_defaults(argv, method, k):
    parser = build_parser()
    args = parser.parse_args(argv)
    # Only the handlers' own seed and method, and a given --k, reach RunConfig
    # from the parser; every other field keeps RunConfig's default.
    assert {f.name for f in fields(RunConfig)} & set(vars(args)) <= {"seed", "method", "k"}
    assert _config_from_args(args, parser, seed=5, method=method) == RunConfig(seed=5, method=method, k=k)


def test_mmd_test_contract(sample_csvs, tmp_path, capsys):
    xp, yp, x, _ = sample_csvs
    out = tmp_path / "doc.json"
    code = cli_main(
        ["mmd-test", "--x", xp, "--y", yp, "--k", "5", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert doc["schema_version"] == 1
    assert len(doc["results"]["p_values"]) == 5
    assert doc["config"]["seed"] == 7
    table = capsys.readouterr().out
    assert "MultiMMD" in table


def test_identical_invocations_byte_identical(sample_csvs, tmp_path):
    xp, yp, *_ = sample_csvs
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli_main(
            ["mmd-test", "--x", xp, "--y", yp, "--k", "3", "--seed", "11", "--out", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_thread_count_does_not_change_document(sample_csvs, tmp_path):
    xp, yp, *_ = sample_csvs
    docs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}.json"
        assert cli_main(
            ["mmd-test", "--x", xp, "--y", yp, "--k", "4", "--seed", "3",
             "--threads", threads, "--out", str(out)]
        ) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]


def test_cli_matches_library_call(sample_csvs, tmp_path):
    # One loop over the four methods pins both branches of the test handler.
    xp, yp, x, y = sample_csvs
    names = [f"c{i}" for i in range(6)]
    zp = tmp_path / "z.csv"
    save_csv(zp, np.hstack([x, y[:, :1]]), names + ["resp"])
    for method in ("multi-mmd", "poly-mmd", "multi-hsic", "poly-hsic"):
        conditioning, family = method.split("-")
        if family == "mmd":
            argv, data = ["mmd-test", "--x", xp, "--y", yp], (x, y)
        else:
            argv, data = ["hsic-test", "--data", str(zp), "--response", "resp"], JointSample(x, y[:, 0])
        out = tmp_path / f"{method}.json"
        code = cli_main(argv + ["--method", conditioning, "--k", "4", "--seed", "5", "--out", str(out)])
        assert code == 0, method
        doc = json.loads(out.read_text())
        config = RunConfig(seed=5, method=method, k=4)
        report = select_and_test(data, config, feature_names=names)
        assert doc["config"] == report.config
        assert doc["results"]["p_values"] == pytest.approx(report.p_values, abs=0)
        assert tuple(doc["results"]["selected"]) == report.selected


def test_poly_method_flag(sample_csvs, tmp_path):
    xp, yp, *_ = sample_csvs
    out = tmp_path / "doc.json"
    cli_main(
        ["mmd-test", "--x", xp, "--y", yp, "--method", "poly", "--k", "3", "--seed", "2",
         "--out", str(out)]
    )
    doc = json.loads(out.read_text())
    assert doc["results"]["method"] == "PolyMMD"
    assert doc["config"]["method"] == "poly-mmd"


def test_hsic_test_runs(tmp_path):
    rng = derive_rng(101)
    X = rng.standard_normal((50, 4))
    y = (X[:, 0] + 0.5 * rng.standard_normal(50) > 0).astype(float)
    table = np.hstack([X, y[:, None]])
    path = tmp_path / "z.csv"
    save_csv(path, table, ["a", "b", "c", "d", "label"])
    out = tmp_path / "doc.json"
    code = cli_main(
        ["hsic-test", "--data", str(path), "--response", "label", "--k", "2", "--seed", "13",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert doc["results"]["method"] == "MultiHSIC"
    assert len(doc["results"]["p_values"]) == 2
    assert set(doc["results"]["feature_names"]) <= {"a", "b", "c", "d"}


def _fallback_argv(tmp_path, command):
    """``command`` on 3 features with k = 3, so that every selected feature
    is selected in every bootstrap draw and its Multi test falls back."""
    rng = derive_rng(110)
    x, y = rng.standard_normal((2, 40, 3))
    save_csv(tmp_path / "x.csv", x, ["a", "b", "c"])
    save_csv(tmp_path / "y.csv", y, ["a", "b", "c"])
    save_csv(tmp_path / "z.csv", np.column_stack([x, np.arange(40) % 2]), ["a", "b", "c", "cls"])
    common = ["--k", "3", "--seed", "1", "--out", str(tmp_path / "doc.json")]
    return {
        "mmd-test": ["mmd-test", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv")],
        "hsic-test": ["hsic-test", "--data", str(tmp_path / "z.csv"), "--response", "cls"],
        "simulate": ["simulate", "--problem", "mean-shift", "--n", "40", "--d", "3", "--informative", "1",
                     "--trials", "1", "--methods", "multi-mmd"],
        "benchmark": ["benchmark", "--data", str(tmp_path / "z.csv"), "--mode", "mmd", "--label", "cls",
                      "--fakes", "0", "--trials", "1", "--methods", "multi-mmd"],
    }[command] + common


@pytest.mark.parametrize("command", ["mmd-test", "hsic-test", "simulate", "benchmark"])
@pytest.mark.filterwarnings("always::selkern.multiscale.ScalesDroppedWarning")
def test_cli_prints_the_fallback_warning_as_one_message_line(tmp_path, capsys, command):
    # The warning names no file or source line of the package.
    assert cli_main(_fallback_argv(tmp_path, command)) == 0
    assert capsys.readouterr().err == (
        "warning: selection bootstrap probability degenerate at nearly all scales for 3 of 3 selected "
        "features; treating their selection events as unconstraining\n")


def test_simulate_requires_explicit_seed(monkeypatch, capsys):
    monkeypatch.setenv("SELKERN_SEED", "5")
    code = cli_main(
        ["simulate", "--problem", "mean-shift", "--n", "40", "--d", "4", "--trials", "1"]
    )
    capsys.readouterr()
    assert code == 2


def test_simulate_document(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = cli_main(
        ["simulate", "--problem", "mean-shift", "--n", "60", "--d", "6", "--shift", "0.5",
         "--informative", "2", "--trials", "2", "--seed", "1", "--k", "3",
         "--replicates", "300", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    methods = {s["method"] for s in doc["results"]["summaries"]}
    assert methods == {"multi-mmd", "poly-mmd"}
    assert len(doc["results"]["per_trial"]) == 4
    capsys.readouterr()


def test_benchmark_document(tmp_path, capsys):
    rng = derive_rng(102)
    n_rows = 80
    labels = (np.arange(n_rows) % 2).astype(float)
    X = rng.standard_normal((n_rows, 3))
    X[labels == 1, 0] += 1.2
    table = np.hstack([X, labels[:, None]])
    path = tmp_path / "bench.csv"
    save_csv(path, table, ["a", "b", "c", "cls"])
    out = tmp_path / "doc.json"
    code = cli_main(
        ["benchmark", "--data", str(path), "--mode", "mmd", "--label", "cls", "--fakes", "3",
         "--trials", "2", "--seed", "21", "--k", "3", "--replicates", "300", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert doc["inputs"]["fakes"] == 3
    capsys.readouterr()


def test_benchmark_document_records_rows_per_trial(tmp_path, capsys):
    # --n changes the results, so the inputs must tell the documents apart.
    rng = derive_rng(109)
    labels = (np.arange(100) % 2).astype(float)
    path = tmp_path / "bench.csv"
    save_csv(path, np.column_stack([rng.standard_normal((100, 3)), labels]), ["a", "b", "c", "cls"])
    docs = {}
    for n in (None, 40, 50):
        out = tmp_path / f"doc-{n}.json"
        rows = [] if n is None else ["--n", str(n)]
        assert cli_main(["benchmark", "--data", str(path), "--mode", "mmd", "--label", "cls", "--fakes", "2",
                         "--trials", "1", "--seed", "3", "--k", "2", "--replicates", "200",
                         "--out", str(out), *rows]) == 0
        docs[n] = json.loads(out.read_text())
    capsys.readouterr()
    assert [docs[n]["inputs"]["n"] for n in docs] == [None, 40, 50]
    assert docs[40]["results"] != docs[50]["results"]


def test_simulate_document_reproduced_from_its_config_and_inputs(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert cli_main(["simulate", "--problem", "logistic", "--n", "40", "--d", "5", "--informative", "2",
                     "--trials", "3", "--seed", "11", "--replicates", "200", "--threads", "2",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    inputs = dict(doc["inputs"])
    trials = inputs.pop("trials")
    problem = selkern.ProblemSpec(kind=inputs.pop("problem"), **inputs)
    methods = [s["method"] for s in doc["results"]["summaries"]]
    summaries = selkern.run_trials(problem, methods, trials, RunConfig(**doc["config"]))
    records = [{"method": s.method, **rec} for s in summaries for rec in s.records]
    assert json.loads(render_document({"per_trial": records}))["per_trial"] == doc["results"]["per_trial"]


def test_benchmark_rows_per_trial_out_of_range_is_data_error(tmp_path, capsys):
    rng = derive_rng(105)
    labels = (np.arange(30) % 2).astype(float)
    path = tmp_path / "bench.csv"
    save_csv(path, np.column_stack([rng.standard_normal((30, 3)), labels]), ["a", "b", "c", "cls"])
    # mmd mode draws --n rows from each class of 15, hsic mode from all 30.
    for mode, flag, n, rows in (("mmd", "--label", 100, 15), ("hsic", "--response", 100, 30),
                                ("mmd", "--label", 0, 15), ("hsic", "--response", 0, 30)):
        argv = ["benchmark", "--data", str(path), "--mode", mode, flag, "cls", "--n", str(n),
                "--trials", "1", "--k", "2", "--seed", "1"]
        assert cli_main(argv) == 1, (mode, n)
        assert f"error: cannot draw {n} rows from {rows}\n" in capsys.readouterr().err, (mode, n)


def test_env_seed_fallback(sample_csvs, tmp_path, monkeypatch, capsys):
    xp, yp, *_ = sample_csvs
    out = tmp_path / "doc.json"
    monkeypatch.setenv("SELKERN_SEED", "99")
    code = cli_main(["mmd-test", "--x", xp, "--y", yp, "--k", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 99
    capsys.readouterr()


def test_missing_seed_is_usage_error(sample_csvs, monkeypatch, capsys):
    xp, yp, *_ = sample_csvs
    monkeypatch.delenv("SELKERN_SEED", raising=False)
    code = cli_main(["mmd-test", "--x", xp, "--y", yp, "--k", "2"])
    capsys.readouterr()
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code = cli_main(["mmd-test", "--bogus", "1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--alpha", "1.5"],
    ["--r", "inf"],
    ["--scale-low", "inf"],
    ["--scale-high", "inf"],
    ["--bandwidth", "inf"],
    ["--kernel", "imq", "--imq-offset", "inf"],
], ids=["alpha", "r", "scale-low", "scale-high", "bandwidth", "imq-offset"])
def test_invalid_config_value_is_usage_error(sample_csvs, capsys, flags):
    # An infinite r, scale or kernel setting used to crash, warn and fail, or
    # flag every feature degenerate.
    xp, yp, *_ = sample_csvs
    code = cli_main(["mmd-test", "--x", xp, "--y", yp, "--k", "2", "--seed", "1", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""


def test_block_estimator_with_mmd_is_usage_error(sample_csvs, capsys):
    xp, yp, *_ = sample_csvs
    code = cli_main(
        ["mmd-test", "--x", xp, "--y", yp, "--k", "2", "--seed", "1", "--estimator", "block"]
    )
    assert code == 2
    assert "HSIC methods only" in capsys.readouterr().err


@pytest.mark.parametrize("flags, settings, message", [
    (["--kernel", "imq", "--bandwidth", "3"], {"kernel_family": "imq", "bandwidth": 3.0},
     "a fixed bandwidth applies to the Gaussian kernel only"),
    (["--kernel", "imq", "--shared-bandwidth"], {"kernel_family": "imq", "shared_bandwidth": True},
     "a shared bandwidth applies to the median-heuristic Gaussian kernel only"),
    (["--bandwidth", "3", "--shared-bandwidth"], {"bandwidth": 3.0, "shared_bandwidth": True},
     "a shared bandwidth applies to the median-heuristic Gaussian kernel only"),
], ids=["imq-bandwidth", "imq-shared", "bandwidth-shared"])
def test_contradictory_kernel_settings_are_usage_errors(sample_csvs, capsys, flags, settings, message):
    # Each pair sets the kernel twice; one setting used to be ignored while
    # the document's config recorded both.
    xp, yp, *_ = sample_csvs
    code = cli_main(["mmd-test", "--x", xp, "--y", yp, "--k", "2", "--seed", "1", *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    with pytest.raises(ValueError, match=message):
        RunConfig(seed=1, **settings)


def test_missing_file_is_data_error(tmp_path, capsys):
    code = cli_main(
        ["mmd-test", "--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope.csv"),
         "--k", "2", "--seed", "1"]
    )
    capsys.readouterr()
    assert code == 1


def test_mmd_test_different_widths_is_shape_error(tmp_path, capsys):
    rng = derive_rng(102)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    save_csv(xp, rng.standard_normal((5, 3)), ["a", "b", "c"])
    save_csv(yp, rng.standard_normal((5, 2)), ["a", "b"])
    code = cli_main(["mmd-test", "--x", str(xp), "--y", str(yp), "--k", "1", "--seed", "1"])
    assert code == 1
    assert "samples must have equal shape, got (5, 3) vs (5, 2)" in capsys.readouterr().err


def test_mmd_test_pairs_headed_columns_by_name(tmp_path, capsys):
    rng = derive_rng(103)
    x, y = rng.standard_normal((30, 3)), rng.standard_normal((30, 3))
    xp, yp, plain = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "plain.csv"
    save_csv(xp, x, ["a", "b", "c"])
    save_csv(yp, y, ["c", "b", "a"])
    plain.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in y))
    argv = ["--k", "1", "--seed", "1"]
    assert cli_main(["mmd-test", "--x", str(xp), "--y", str(yp)] + argv) == 1
    err = capsys.readouterr().err
    assert "column names differ" in err and "'a'" in err and "'c'" in err
    # A file without a header row pairs its columns by position.
    assert cli_main(["mmd-test", "--x", str(xp), "--y", str(plain)] + argv) == 0


def test_mmd_test_pairs_positional_spelled_headers_by_name(tmp_path, capsys):
    # Header rows spelled like the names of headerless columns are still
    # header rows, and must match in order too.
    rng = derive_rng(104)
    x, y = rng.standard_normal((30, 3)), rng.standard_normal((30, 3))
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    save_csv(xp, x, ["f0", "f1", "f2"])
    save_csv(yp, y, ["f1", "f0", "f2"])
    argv = ["--k", "1", "--seed", "1", "--method", "poly"]
    assert cli_main(["mmd-test", "--x", str(xp), "--y", str(yp)] + argv) == 1
    err = capsys.readouterr().err
    assert "column names differ" in err and "'f0'" in err and "'f1'" in err
    # Headerless files pair by position, with each other and with a headed file.
    xplain, yplain = tmp_path / "xplain.csv", tmp_path / "yplain.csv"
    for path, values in ((xplain, x), (yplain, y)):
        path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values))
    for pair in ((xplain, yplain), (xp, yplain), (xplain, yp)):
        assert cli_main(["mmd-test", "--x", str(pair[0]), "--y", str(pair[1])] + argv) == 0
    assert "column names differ" not in capsys.readouterr().err


def test_bad_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3\n")
    code = cli_main(["mmd-test", "--x", str(bad), "--y", str(bad), "--k", "1", "--seed", "1"])
    capsys.readouterr()
    assert code == 1


def test_document_sanitizes_non_finite(tmp_path):
    doc = {"schema_version": 1, "x": float("inf"), "y": float("nan"), "z": [1.0, float("-inf")]}
    text = render_document(doc)
    parsed = json.loads(text)
    assert parsed["x"] == "inf" and parsed["y"] == "nan" and parsed["z"][1] == "-inf"


def test_document_to_stdout_when_no_out(sample_csvs, capsys):
    # Without --out, stdout is the document alone and the table goes to stderr.
    xp, yp, *_ = sample_csvs
    for argv, table_head in (
        (["mmd-test", "--x", xp, "--y", yp, "--k", "2", "--seed", "4"], "MultiMMD: top-2 features"),
        (["simulate", "--problem", "mean-shift", "--n", "60", "--d", "4", "--informative", "1",
          "--trials", "2", "--methods", "poly-mmd", "--seed", "4"], "      method"),
    ):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["command"] == argv[0]
        assert captured.err.startswith(table_head)


def test_simulate_null_calibration(tmp_path, capsys):
    # 100-trial global-null run; the reported false positive rates must sit
    # near the nominal alpha = 0.05.  Takes about a minute.
    out = tmp_path / "null.json"
    code = cli_main(
        ["simulate", "--problem", "mean-shift", "--n", "400", "--d", "20", "--shift", "0",
         "--trials", "100", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["config"]["k"] == 10  # default k = d // 2
    for summary in doc["results"]["summaries"]:
        assert 0.01 <= summary["fpr"] <= 0.10, (summary["method"], summary["fpr"])


_MMD = ["mmd-test", "--x", "{x}", "--y", "{y}", "--k", "2", "--seed", "1"]


@pytest.mark.parametrize("call, env, expected, message", [
    (_MMD + ["--block-size", "3"], {}, 2, "block_size must be >= 4"),
    (_MMD + ["--replicates", "0"], {}, 2, "replicates_per_scale must be >= 1"),
    (_MMD + ["--threads", "0"], {}, 2, "threads must be >= 1"),
    (_MMD + ["--k", "0"], {}, 2, "k must be >= 1"),
    (_MMD + ["--seed", "-1"], {}, 2, "seed must be an unsigned 64-bit integer"),
    (_MMD[:-2], {"SELKERN_SEED": "abc"}, 2, "SELKERN_SEED must be an integer, got 'abc'"),
    (["benchmark", "--data", "{x}", "--mode", "mmd", "--trials", "1", "--seed", "1"], {}, 2,
     "--label is required in mmd mode"),
    (["mmd-test", "--x", "{latin1}", "--y", "{latin1}", "--k", "1", "--seed", "1"], {}, 1,
     "can't decode byte 0xe9"),
    (lambda tmp_path: save_csv(tmp_path / "s.csv", np.zeros((2, 3)), ["a", "b"]), {}, selkern.DataShapeError,
     "one column name per column required"),
], ids=["block-size", "replicates", "threads", "k", "seed", "env-seed", "benchmark-label", "not-utf8",
        "save-csv-names"])
def test_input_checks(sample_csvs, tmp_path, capsys, monkeypatch, call, env, expected, message):
    # A command line exits with its code and names the problem on stderr; a
    # library call raises.  A first line that is not UTF-8 leaves numpy's
    # reader for the csv module, whose decoding error is a data error.
    xp, yp, *_ = sample_csvs
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("café,b\n1,2\n3,4\n".encode("latin-1"))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if callable(call):
        with pytest.raises(expected, match=f"^{message}$"):
            call(tmp_path)
        return
    assert cli_main([a.format(x=xp, y=yp, latin1=latin1) for a in call]) == expected
    assert message in capsys.readouterr().err
