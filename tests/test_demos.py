import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "sectorforms").glob("*.py"))

# perfbench/tracing.py counts calls of Poly.partial through getattr(Poly,
# "partial"), and perfbench/test_perfbench.py checks operators through
# jsonio.sectorform_to_dict; both go with the next change to the benchmark
CALLED_FROM_OUTSIDE = {"Poly.partial", "jsonio.sectorform_to_dict"}

# demo name -> (line prefix, the rest of that line after whitespace)
EXPECTED_LINES = {"04_cohomology_of_the_line": ("H^0, H^1, H^2:", "(1, 0, 0)")}


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if path.stem in EXPECTED_LINES:
        prefix, rest = EXPECTED_LINES[path.stem]
        lines = [l[len(prefix):].strip() for l in proc.stdout.splitlines() if l.startswith(prefix)]
        assert lines == [rest]


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(path):
    """(qualified name, bare name) of each module-level function and class of
    a file, public or private, and of each method of those classes; dunders
    are left out, since Python calls them."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_dunder(node.name):
            yield f"{path.stem}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_definition_has_a_caller():
    # a name or attribute read anywhere in src/ or the demos counts as a use;
    # imports and string literals do not.  Private definitions are held to
    # the same rule: one that only tests call belongs in tests/helpers.py.
    used = set()
    for path in SOURCES + DEMOS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    uncalled = {qual for path in SOURCES for qual, name in definitions(path)
                if name not in used}
    assert uncalled == CALLED_FROM_OUTSIDE
