"""Checks on the library's source text: imports that slow every start-up,
and imports that nothing uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "znbases"


def test_library_has_no_slow_start_up_imports():
    # every znbases process imports the whole package: dataclasses and
    # typing.NamedTuple cost milliseconds at each start, and json is
    # needed only where cli._emit writes JSON
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_emit = {id(node)
                   for func in ast.walk(tree) if path.name == "cli.py"
                   and isinstance(func, ast.FunctionDef) and func.name == "_emit"
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name.split(".")[0] for alias in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom):
                modules = [(node.module or "").split(".")[0]]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "NamedTuple":
                hits.append(f"{path.name}:{node.lineno}: typing.NamedTuple")
                continue
            else:
                continue
            if "dataclasses" in modules:
                hits.append(f"{path.name}:{node.lineno}: imports dataclasses")
            if "NamedTuple" in names:
                hits.append(f"{path.name}:{node.lineno}: imports NamedTuple")
            if "json" in modules and id(node) not in in_emit:
                hits.append(f"{path.name}:{node.lineno}: imports json outside cli._emit")
    assert hits == []


def test_library_has_no_unused_imports():
    # a deletion tends to leave its last import behind; __init__.py
    # re-exports, so there the imported names must equal __all__
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            imported = {alias.asname or alias.name
                        for node in tree.body if isinstance(node, ast.ImportFrom)
                        for alias in node.names}
            exported = {ast.literal_eval(elt)
                        for node in tree.body if isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                        for elt in node.value.elts}
            hits += [f"{path.name}: {name} imported but not in __all__"
                     for name in sorted(imported - exported)]
            hits += [f"{path.name}: {name} in __all__ but not imported"
                     for name in sorted(exported - imported)]
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            hits += [f"unused import at {path.name}:{node.lineno}: {name}"
                     for name in names if name not in used]
    assert hits == []
