"""Layout rules of the package that no single module's tests can see."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "sectorforms").glob("*.py"))


def test_every_private_definition_is_used_in_src():
    # A module-level function or class whose name starts with "_" is used
    # when src/ reads it as a name or an attribute; its def line and the
    # lines importing it are not reads, and neither are the tests or demos.
    # Code with no caller in src/ goes, or moves to tests/helpers.py.
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert private - read == set()


def test_only_fincard_and_poly_read_fill():
    # records fill their fields through _Record.__init__ and _Record._new;
    # PolyMap, which is no record, is the one other reader of _fill
    readers = {path.name for path in SOURCES
               if any(isinstance(node, ast.Name) and node.id == "_fill"
                      or isinstance(node, ast.alias) and node.name == "_fill"
                      for node in ast.walk(ast.parse(path.read_text())))}
    assert readers == {"fincard.py", "poly.py"}


def test_cold_start_imports_no_dataclasses_inspect_or_typing():
    # Most of a CLI run is start-up, and these three cost several times the
    # package's own import (dataclasses brings in inspect, ast, dis and
    # tokenize).  -S leaves out site, which may import typing on its own.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sectorforms, sectorforms.cli; "
            "sectorforms.cli.build_parser(); "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []
