"""Layout rules of the package that no single module's tests can see."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sectorforms").glob("*.py"))


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
