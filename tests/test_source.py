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


def splu_calls(tree: ast.Module) -> list:
    """(line, shared) of every ``splu`` call: shared when it unpacks
    ``LU_OPTIONS``, alone or as the base of ``dict(LU_OPTIONS, ...)``."""
    def shared(kw):
        value = kw.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) \
                == "dict" and value.args:
            value = value.args[0]
        return kw.arg is None and getattr(value, "id", None) == "LU_OPTIONS"

    return [(node.lineno, any(shared(kw) for kw in node.keywords))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "splu"
                 or getattr(node.func, "id", None) == "splu")]


def test_every_lu_uses_the_shared_options():
    # one SuperLU option set for every LU (linalg.LU_OPTIONS)
    calls = {path.name: splu_calls(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert sum(len(found) for found in calls.values()) >= 3
    bare = {name: lines for name, found in calls.items()
            if (lines := [line for line, ok in found if not ok])}
    assert not bare, f"splu without LU_OPTIONS at {bare}"


def test_bare_splu_is_caught():
    tree = ast.parse("spla.splu(A)\nspla.splu(A, **LU_OPTIONS)\n"
                     "splu(A, **dict(LU_OPTIONS, permc_spec='NATURAL'))\n"
                     "splu(A, **OTHER)\n")
    assert splu_calls(tree) == [(1, False), (2, True), (3, True), (4, False)]
