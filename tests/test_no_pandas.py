"""Lint: the engine is Arrow end to end. No module of simplefeatures_ray/
and not __ray_entry__.py imports pandas or converts a table to or from a
pandas frame (`.to_pandas(`, `from_pandas(`); grouping, counting and
ranking go through functions/_arrow. Tests and scripts/ are exempt."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONVERSIONS = {"to_pandas", "from_pandas"}


def _pandas_uses(tree: ast.Module):
    """(line, what) for each pandas import or frame conversion call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "pandas":
                    yield node.lineno, f"import {a.name}"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "pandas":
                yield node.lineno, f"from {node.module}"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in CONVERSIONS:
                yield node.lineno, f"{name}("


def _sources():
    yield from sorted((ROOT / "simplefeatures_ray").rglob("*.py"))
    yield ROOT / "__ray_entry__.py"


def test_scan_catches_each_form():
    src = ("import pandas as pd\nfrom pandas import DataFrame\n"
           "t.to_pandas()\npa.Table.from_pandas(df)\nfrom_pandas(df)\n"
           "x = 'to_pandas()'  # .to_pandas( in text is not a call\n")
    assert [ln for ln, _ in _pandas_uses(ast.parse(src))] == [1, 2, 3, 4, 5]


def test_engine_has_no_pandas():
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(ROOT).as_posix()
        found += [f"{rel}:{ln}: {what}" for ln, what in _pandas_uses(tree)]
    assert found == []
