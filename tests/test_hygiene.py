"""Source hygiene checks on `src/selkern`, by the standard library's `ast`:
no module imports a name it never uses or imports scipy, none loads
`numpy.fft` on import, none calls `lstsq`, every private top-level function
or class is referenced somewhere in `src/`, every public one is exported or
read there, and no function restates a `RunConfig` default.  Also: no
trial setting has a default both in the CLI and in the library, and the
README names every `fallback` reason."""
import argparse
import ast
import inspect
from dataclasses import MISSING, fields
from pathlib import Path

import selkern
from selkern.cli import build_parser

_SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(selkern.__file__).parent.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Names read in ``tree``: bare names, attributes, and the strings of `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return used


def test_no_unused_imports():
    unused = []
    for name, tree in _SOURCES.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_no_scipy_imports():
    # scipy is a test-only dependency: importing scipy.special alone took most
    # of every command's start-up.
    found = []
    for name, tree in _SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}: {m}" for m in modules if m == "scipy" or m.startswith("scipy.")]
    assert not found


def test_no_lstsq_calls():
    # The scaling-law fit has one path, `multiscale._weighted_lines`, which
    # `fit_bootstrap_probabilities`, and so the Multi report, goes through.
    found = [f"{name}: line {node.lineno}" for name, tree in _SOURCES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "lstsq" in (getattr(node.func, "attr", None),
                                                          getattr(node.func, "id", None))]
    assert not found


def test_no_module_level_numpy_fft():
    # numpy loads numpy.fft on first use; importing it with a module would
    # add its load to every command's start-up.
    found = []
    for name, tree in _SOURCES.items():
        stack = list(tree.body)
        while stack:  # every node that runs on import: all but function bodies
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
            elif isinstance(node, ast.Attribute) and node.attr == "fft":
                modules = ["numpy.fft"]
            else:
                continue
            found += [f"{name}: line {node.lineno}" for m in modules if m == "numpy.fft" or m.startswith("numpy.fft.")]
    assert not found


def _unreferenced_definitions() -> list[tuple[str, str]]:
    """(module, name) of the top-level functions and classes that no source
    reads and `selkern.__all__` does not name."""
    used = set().union(*(_used_names(tree) for tree in _SOURCES.values()))
    return [(name, node.name) for name, tree in _SOURCES.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name not in used]


def test_no_unreferenced_private_definitions():
    assert not [d for d in _unreferenced_definitions() if d[1].startswith("_")]


def test_public_definitions_are_exported_or_used():
    # The console script, and the CSV writer that pairs with `load_csv`.
    entry_points = {("cli.py", "main"), ("cli.py", "save_csv")}
    assert not [d for d in _unreferenced_definitions() if not d[1].startswith("_") and d not in entry_points]


def test_no_function_defaults_a_run_config_field():
    # RunConfig is the one source of these settings' defaults; a function
    # that takes one of them takes it without a default of its own.
    settings = {f.name for f in fields(selkern.RunConfig)}
    found = []
    for name, tree in _SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found += [f"{name}: {node.name}({arg.arg}=...)" for arg in defaulted if arg.arg in settings]
    assert not found


def test_no_trial_setting_is_defaulted_in_both_the_cli_and_the_library():
    # One side holds a setting's default; the other requires the setting,
    # leaves it out (argparse.SUPPRESS) or passes None on to the library's rule.
    run_config = {f.name: f.default for f in fields(selkern.RunConfig)}
    library = {
        "simulate": {**run_config, **{f.name: f.default for f in fields(selkern.ProblemSpec)}},
        "benchmark": {**run_config, **{name: p.default for name, p in
                                       inspect.signature(selkern.benchmark_trials).parameters.items()}},
    }
    library_name = {"fakes": "n_fake"}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = []
    for command, defaults in library.items():
        for action in commands.choices[command]._actions:
            name = library_name.get(action.dest, action.dest)
            default = defaults.get(name, MISSING)
            cli_sets_a_value = action.default not in (None, argparse.SUPPRESS)
            if cli_sets_a_value and default not in (MISSING, inspect.Parameter.empty):
                found.append(f"{command} --{action.dest}: {action.default!r} and {name}={default!r}")
    assert not found


def test_readme_names_every_fallback_reason():
    # Every value the package stores under a "fallback" key, in a dict display
    # or by subscript assignment, is a string literal the README explains.
    values = []
    for tree in _SOURCES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                pairs = zip(node.keys, node.values)
            elif isinstance(node, ast.Assign):
                pairs = [(target.slice, node.value) for target in node.targets if isinstance(target, ast.Subscript)]
            else:
                continue
            values += [value for key, value in pairs if isinstance(key, ast.Constant) and key.value == "fallback"]
    assert values and all(isinstance(v, ast.Constant) and isinstance(v.value, str) for v in values)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert not [v.value for v in values if f"`{v.value}`" not in readme]
