"""Checks on the library's source text: imports that slow every start-up,
and imports that nothing uses; on the package's export table; and on the
modules a real start-up loads and runs."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import znbases

SRC = Path(__file__).resolve().parent.parent / "src" / "znbases"
GOLDEN = {tuple(run["argv"]): run for run in json.loads(
    (Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))}


def test_library_has_no_slow_start_up_imports():
    # every znbases process runs cli and core, and each command the library
    # modules it uses: dataclasses and typing.NamedTuple cost milliseconds
    # at each start, json is needed only where cli._emit writes JSON, and
    # click only inside a function, for --help and refusals; array is a
    # shared object that no start-up loads (packed lanes are read through
    # memoryview.cast instead); fractions, which loads decimal, only where
    # core.Fraction is first read; typing only for annotations, which
    # collections.abc serves without loading it
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
            for slow in ("click", "fractions", "decimal", "typing"):
                if slow in modules and id(node) not in in_function:
                    hits.append(f"{path.name}:{node.lineno}: imports {slow} at module level")
            if "array" in modules:
                hits.append(f"{path.name}:{node.lineno}: imports array")
    assert hits == []


# Runs one command as the console script does, main reading sys.argv, and
# reports, on the last four stderr lines: the znbases modules in sys.modules
# right after the import of znbases.cli; which of click, locale (imported by
# click's gettext), fractions and decimal (imported by fractions) the command
# loaded; the znbases modules whose body ran (a lazily registered module stays
# of its own class until its first attribute read runs it); and whether the
# heap was frozen (this hook, registered before main's, runs after it).
PROBE = """
import atexit, gc, sys, types
from znbases.cli import main
registered = [m for m in sys.modules if m.startswith("znbases.")]
atexit.register(lambda: sys.stderr.write(
    "\\nregistered: " + " ".join(registered)
    + "\\nloaded: " + " ".join(
        m for m in ("click", "locale", "fractions", "decimal") if m in sys.modules)
    + "\\nran: " + " ".join(m for m, module in sys.modules.items()
                             if m.startswith("znbases.") and type(module) is types.ModuleType)
    + "\\nfrozen: " + str(gc.get_freeze_count() > 0)))
main(prog_name="znbases")
"""
LIBRARY = ("core", "sumsets", "affine", "bounds", "spectrum", "structure")
SPECTRUM = ("cli", "core", "sumsets", "affine", "spectrum")
STRUCTURE = ("cli", "core", "sumsets", "structure")


@pytest.mark.parametrize("argv, loads_click, loads_fractions, runs", [
    (("--version",), False, False, ("cli", "core")),
    (("spectrum", "--n", "8", "--exhaustive"), False, False, SPECTRUM),
    (("order", "--n", "9", "--set", "0,1,3", "--format", "json"), False, False,
     ("cli", "core", "sumsets")),
    (("canon", "--n", "12", "--set", "0,3,5,9", "--format", "json"), False, False,
     ("cli", "core", "affine")),
    (("family", "--k", "3", "--n-range", "16..40", "--format", "csv"), False, True,
     ("cli", "core", "sumsets", "bounds")),
    (("conjecture", "--k", "3", "--n", "60", "--max-card", "6", "--shards", "1",
      "--format", "csv"), False, True, (*SPECTRUM, "bounds")),
    (("df-analyze", "--n", "20", "--set", "0,4,8,12,16,1", "--format", "json"), False, True,
     STRUCTURE),
    (("pipeline", "--n", "20", "--set", "0,4,8,12,16,1", "--k", "3", "--format", "csv"),
     False, True, STRUCTURE),
    (("order", "--help"), True, False, ("cli", "core")),
    (("spectrum", "--n", "7", "--shards", "0"), True, False, SPECTRUM),
])
def test_well_formed_commands_start_without_click(argv, loads_click, loads_fractions, runs):
    # click and locale cost about a third of every process start; only
    # --help and refusals need them, and those still print click's bytes.
    # fractions and decimal cost about a third of what remains; only
    # commands that build a rational load them, and family and conjecture
    # show that the probe sees them when they are loaded.  Every library
    # module is in sys.modules once znbases.cli is imported, as
    # perfbench/tracer.py needs, but a command runs only the ones it uses.
    # Every exit, --help and the exit-2 refusal too, ends with the heap
    # frozen, and the golden stdout shows that nothing was lost by it
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                         text=True, env=env, timeout=60)
    report = {key: value.split()
              for key, value in (line.split(":") for line in res.stderr.splitlines()[-4:])}
    assert report["frozen"] == ["True"]
    assert sorted(report["registered"]) == sorted(f"znbases.{m}" for m in ("cli", *LIBRARY))
    assert sorted(report["ran"]) == sorted(f"znbases.{m}" for m in runs)
    loaded = report["loaded"]
    assert ("click" in loaded) == loads_click
    if not loads_click:
        assert "locale" not in loaded
    assert ("fractions" in loaded, "decimal" in loaded) == (loads_fractions,) * 2
    if argv in GOLDEN:
        assert (res.returncode, res.stdout) == (GOLDEN[argv]["exit_code"],
                                                GOLDEN[argv]["stdout"])
    else:
        assert res.returncode == 0 and res.stdout


def test_package_exports_resolve_to_their_home_modules():
    # the package exports through its lazy table, not through import lines:
    # the table's names are __all__ and dir() lists them before their first
    # read, each is the object of that name in its home module, and
    # znbases.spectrum is the function, not the module
    assert sorted(znbases._EXPORTS) == sorted(znbases.__all__)
    assert set(znbases.__all__) <= set(dir(znbases))
    for name, home in znbases._EXPORTS.items():
        module = importlib.import_module(f"znbases.{home}")
        assert getattr(znbases, name) is getattr(module, name), name
    assert inspect.isfunction(znbases.spectrum)
    assert znbases.spectrum is sys.modules["znbases.spectrum"].spectrum


def test_library_has_no_unused_imports():
    # a deletion tends to leave its last import behind
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
