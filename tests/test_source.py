"""Static checks of the package source."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "surfflow"


def module_level_names(tree: ast.Module) -> list:
    """Every name a statement directly in the module body binds: assigned,
    defined or imported (one entry per binding)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_name_bound_twice(path):
    # a second binding silently replaces the first, with its comment
    tree = ast.parse(path.read_text(), filename=str(path))
    twice = sorted(name for name, k in
                   Counter(module_level_names(tree)).items() if k > 1)
    assert not twice, f"{path.name} binds {twice} more than once"


def test_duplicate_binding_is_caught():
    tree = ast.parse("A = 1\ndef f(): pass\nB: int = 2\nA = 3\n")
    assert Counter(module_level_names(tree))["A"] == 2
