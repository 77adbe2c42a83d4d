"""Source hygiene checks on `src/selkern`, by the standard library's `ast`:
no module imports a name it never uses or imports scipy, every private
top-level function or class is referenced somewhere in `src/`, and every
public one is exported or read there."""
import ast
from pathlib import Path

import selkern

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
