"""Lint: every parameter of every function in simplefeatures_ray/ is read
by its body. An option the body ignores misleads its callers; delete it
or use it. `self`, `cls` and `_`-prefixed names are exempt."""
import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "simplefeatures_ray"

# (module path relative to the package, qualified function name, parameter)
KNOWN = {
    # mirrors the reference's zone-from-location signature; the zone rule
    # is simplified (no Norway/Svalbard exceptions), which needs no lat
    ("carto.py", "UTM.zone_for", "lat"),
}


def _params(fn: ast.AST) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return [n for n in names if n not in ("self", "cls") and not n.startswith("_")]


def _ignored(tree: ast.Module):
    """(qualified name, parameter) for each parameter whose function body
    (nested functions included) never loads it."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                nodes = [n for stmt in child.body for n in ast.walk(stmt)]
                # `out += x` reads `out` too
                read = {n.id for n in nodes
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                read |= {n.target.id for n in nodes if isinstance(n, ast.AugAssign)
                         and isinstance(n.target, ast.Name)}
                for p in _params(child):
                    if p not in read:
                        yield qual, p
                yield from walk(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def test_every_parameter_is_read():
    found = set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(rel, qual, p) for qual, p in _ignored(tree)}
    assert sorted(found - KNOWN) == []
    # an exception whose parameter is gone or now read is stale
    assert KNOWN <= found
