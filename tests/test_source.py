"""Static checks of the package source."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "surfflow"


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
    """(line, shared) of every ``splu`` call: shared when its only keyword
    argument is ``**LU_OPTIONS``, with no option overridden."""
    return [(node.lineno, [(kw.arg, getattr(kw.value, "id", None))
                           for kw in node.keywords] == [(None, "LU_OPTIONS")])
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "splu"
                 or getattr(node.func, "id", None) == "splu")]


def test_every_lu_uses_the_shared_options():
    # one SuperLU option set for every LU (linalg.LU_OPTIONS), at the two
    # call sites: linalg.poisson_lu and _HeldLU.build in stepper
    calls = {path.name: splu_calls(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: len(found) for name, found in calls.items() if found} \
        == {"linalg.py": 1, "stepper.py": 1}
    bare = {name: lines for name, found in calls.items()
            if (lines := [line for line, ok in found if not ok])}
    assert not bare, f"splu without LU_OPTIONS at {bare}"


def test_bare_splu_is_caught():
    tree = ast.parse("spla.splu(A)\nspla.splu(A, **LU_OPTIONS)\n"
                     "splu(A, **dict(LU_OPTIONS, permc_spec='NATURAL'))\n"
                     "splu(A, **OTHER)\nsplu(A, **LU_OPTIONS, relax=1)\n")
    assert splu_calls(tree) == [(1, False), (2, True), (3, False), (4, False),
                                (5, False)]


def definitions(tree: ast.Module) -> list:
    """(name, first line, last line) of every module-level function and
    class, every non-dunder method and every annotated class field."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.name, node.lineno, node.end_lineno))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (item.name.startswith("__")
                             and item.name.endswith("__")):
                found.append((item.name, item.lineno, item.end_lineno))
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                found.append((item.target.id, item.lineno, item.end_lineno))
    return found


def references(tree: ast.Module) -> list:
    """(name, line) of every Name, Attribute and imported name (each part
    of a dotted import) and string subscript (a config key read from its
    section's dict).  A keyword argument is no reference: a field that its
    constructor sets and nothing reads is idle."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(part, node.lineno) for alias in node.names
                      for part in alias.name.split(".")]
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            found.append((node.slice.value, node.lineno))
    return found


def function_layer_names(tree: ast.Module) -> set:
    """Each part of the dotted strings in ``FUNCTION_LAYERS``: the bench
    wraps those functions by name."""
    return {part for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "FUNCTION_LAYERS"
                    for t in node.targets)
            for const in ast.walk(node.value)
            if isinstance(const, ast.Constant) and isinstance(const.value, str)
            for part in const.value.split(".")}


def unreferenced(trees: dict, checked, extra=frozenset()) -> list:
    """"file: name" of every definition in the ``checked`` files of
    ``trees`` (file -> tree) that no reference in any of ``trees`` names
    outside the definition's own lines, and that is not in ``extra``."""
    where = {}
    for label, tree in trees.items():
        for name, line in references(tree):
            where.setdefault(name, []).append((label, line))
    return [f"{label}: {name}" for label in checked
            for name, first, last in definitions(trees[label])
            if name not in extra and not any(
                at != label or not first <= line <= last
                for at, line in where.get(name, ()))]


def test_every_definition_is_referenced():
    # a definition that only tests reach belongs in tests/
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text())
             for p in paths}
    checked = [label for label in trees if label.startswith("src/")]
    idle = unreferenced(trees, checked,
                        function_layer_names(trees["bench/spans.py"]))
    assert not idle, f"defined but never referenced: {idle}"


def test_unreferenced_definition_is_caught():
    # y is read, k only set by keyword, z never named
    trees = {"a.py": ast.parse(
        "class A:\n    x: int = 0\n    y: int = 1\n    z: int = 2\n"
        "    k: int = 3\n"
        "    def used(self):\n        return self.x\n"
        "    def idle(self):\n        return self.idle()\n"
        "    def __eq__(self, other):\n        return True\n"
        "def wrapped(): pass\n"),
        "b.py": ast.parse("from a import A\nA(y=2, k=4).used()\n"
                          "print(A().y)\n")}
    assert unreferenced(trees, ["a.py"], {"wrapped"}) == [
        "a.py: z", "a.py: k", "a.py: idle"]
