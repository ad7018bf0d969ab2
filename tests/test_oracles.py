"""The oracles stay independent of the package they check."""

import ast
from pathlib import Path


def test_oracles_do_not_import_capwave():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "capwave"]
