"""The benchmark's contract with the package.

``bench/workloads.py`` runs the same code against two trees, so every name
it imports from wbiv must exist, and every call it makes must still bind,
in both. This test only reads ``bench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
MODULES = ("wbiv", "wbiv.ar", "wbiv.rng")


def _imported(tree: ast.Module) -> dict:
    """Each name imported from one of MODULES -> the object it names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name} is gone"
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def test_every_imported_name_exists():
    names = _imported(ast.parse(WORKLOADS.read_text()))
    assert {"fit_method", "restricted_ols_fit", "wrec_run", "substream"} <= names.keys()


def test_every_call_binds_to_its_signature():
    # a call is f(...) or, through the tracer, tr.call(label, f, ...)
    tree = ast.parse(WORKLOADS.read_text())
    names = _imported(tree)
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
            func, args = args[1], args[2:]
        if not (isinstance(func, ast.Name) and func.id in names):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        if any(isinstance(a, ast.Starred) for a in args) or None in keywords:
            continue
        try:
            inspect.signature(names[func.id]).bind(*args, **keywords)
        except TypeError as exc:
            raise AssertionError(f"line {node.lineno}: {func.id}: {exc}") from None
        checked += 1
    assert checked >= 20
