"""Checks on the library's source text: imports that slow every start-up,
and imports that nothing uses; and on the modules a real start-up loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "znbases"
GOLDEN = {tuple(run["argv"]): run for run in json.loads(
    (Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))}


def test_library_has_no_slow_start_up_imports():
    # every znbases process imports the whole package: dataclasses and
    # typing.NamedTuple cost milliseconds at each start, json is needed
    # only where cli._emit writes JSON, and click only inside a function,
    # for --help and refusals; array is a shared object that no start-up
    # loads (packed lanes are read through memoryview.cast instead);
    # fractions, which loads decimal, only where core.Fraction is first read
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)]
        in_function = {id(node) for func in functions for node in ast.walk(func)}
        in_emit = {id(node) for func in functions
                   if path.name == "cli.py" and func.name == "_emit"
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
            for slow in ("click", "fractions", "decimal"):
                if slow in modules and id(node) not in in_function:
                    hits.append(f"{path.name}:{node.lineno}: imports {slow} at module level")
            if "array" in modules:
                hits.append(f"{path.name}:{node.lineno}: imports array")
    assert hits == []


# Runs one command as the console script does and names, on the last stderr
# line, which of click, locale (imported by click's gettext), fractions and
# decimal (imported by fractions) it loaded.
PROBE = """
import atexit, sys
atexit.register(lambda: sys.stderr.write("\\nloaded:" + "".join(
    " " + m for m in ("click", "locale", "fractions", "decimal") if m in sys.modules)))
from znbases.cli import main
main(sys.argv[1:], prog_name="znbases")
"""


@pytest.mark.parametrize("argv, loads_click, loads_fractions", [
    (("--version",), False, False),
    (("spectrum", "--n", "8", "--exhaustive"), False, False),
    (("order", "--n", "9", "--set", "0,1,3", "--format", "json"), False, False),
    (("canon", "--n", "12", "--set", "0,3,5,9", "--format", "json"), False, False),
    (("family", "--k", "3", "--n-range", "16..40", "--format", "csv"), False, True),
    (("conjecture", "--k", "3", "--n", "60", "--max-card", "6", "--shards", "1",
      "--format", "csv"), False, True),
    (("order", "--help"), True, False),
    (("spectrum", "--n", "7", "--shards", "0"), True, False),
])
def test_well_formed_commands_start_without_click(argv, loads_click, loads_fractions):
    # click and locale cost about a third of every process start; only
    # --help and refusals need them, and those still print click's bytes.
    # fractions and decimal cost about a third of what remains; only
    # commands that build a rational load them, and family and conjecture
    # show that the probe sees them when they are loaded
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                         text=True, env=env, timeout=60)
    loaded = res.stderr.rsplit("loaded:", 1)[1].split()
    assert ("click" in loaded) == loads_click
    if not loads_click:
        assert "locale" not in loaded
    assert ("fractions" in loaded, "decimal" in loaded) == (loads_fractions,) * 2
    if argv in GOLDEN:
        assert (res.returncode, res.stdout) == (GOLDEN[argv]["exit_code"],
                                                GOLDEN[argv]["stdout"])
    else:
        assert res.returncode == 0 and res.stdout


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
