"""Source hygiene: no module under src/ or tests/ imports a name it never
uses, and src/ defines nothing that only the tests use.

The project configures no linter, so these AST scans stand in for the two
rules it needs.  A package __init__.py is skipped by the import scan:
re-exporting is its job.  But a re-export is no use: a definition in src/
must be read by another src/ module, a script, the perfbench harness or
the acceptance gate.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """'name (line N)' for every imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_imports():
    source = "import os\nimport os.path\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 2)"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports_in_src_and_tests():
    found = {}
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py" and (names := unused_imports(path.read_text())):
                found[str(path.relative_to(ROOT))] = names
    assert found == {}


def definitions(tree: ast.Module) -> list[tuple[str, bool]]:
    """(name, is_method) for every function and class the module defines,
    nested ones included; dunder methods, which Python calls, are skipped."""
    out = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((child.name, in_class and isinstance(child, ast.FunctionDef)))
                visit(child, isinstance(child, ast.ClassDef))
            else:
                visit(child, in_class)

    visit(tree, False)
    return out


def unreferenced_definitions(src: dict[str, str], users: list[str]) -> list[str]:
    """'module: name' for each definition in the src modules that no src
    module or user module reads.  A function or class counts as read when
    its name is loaded, read as an attribute or given as a string (perfbench
    looks the functions it traces up by name), not when it is imported, so
    a package __init__.py's re-exports are no readers; a method counts only
    when an attribute of that name is read on something other than a module
    the source imports, so operator.sub or os.remove reads a function, never
    a method sub or remove.  Matching by name is still loose: any other
    attribute read of a method's name keeps the method."""
    names: set[str] = set()
    attrs: set[str] = set()
    for source in [*src.values(), *users]:
        tree = ast.parse(source)
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                on_module = isinstance(node.value, ast.Name) and node.value.id in modules
                (names if on_module else attrs).add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return sorted(f"{module}: {name}" for module, source in src.items()
                  for name, is_method in definitions(ast.parse(source))
                  if name not in attrs and (is_method or name not in names))


def test_scan_finds_definitions_only_tests_use():
    # a local variable named terms is no use of the method terms
    src = {"m": "class C:\n    def used(self): pass\n    def terms(self): pass\n"
                "    def __eq__(self, o): pass\n"
                "def helper(terms): return terms\ndef dead(): pass\n"}
    assert unreferenced_definitions(src, ["C().used()\nhelper([])\n"]) == ["m: dead", "m: terms"]
    # an import is no read, so a re-export is no reader; a lookup by name is one
    src = {"m": "def exported(): pass\ndef called(): pass\ndef traced(): pass\n",
           "__init__": "from .m import exported, called, traced\n"}
    users = ["from pkg import called\ncalled()\n", "SPANNED = ((\"m\", \"traced\"),)\n"]
    assert unreferenced_definitions(src, users) == ["m: exported"]
    # an attribute read on an imported module reads a function, not a method
    src = {"m": "class C:\n    def sub(self): pass\n    def remove(self): pass\n"
                "def neg(): pass\n"}
    users = ["import operator\nimport os.path as osp\nimport m\n"
             "operator.sub\nosp.remove\nm.neg(m.C())\n"]
    assert unreferenced_definitions(src, users) == ["m: remove", "m: sub"]
    assert unreferenced_definitions(src, [users[0] + "x.remove\n"]) == ["m: sub"]


def test_no_definitions_in_src_that_only_tests_use():
    src = {str(path.relative_to(ROOT)): path.read_text()
           for path in sorted((ROOT / "src").rglob("*.py"))}
    users = [path.read_text() for top in ("scripts", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py")) if "tests" not in path.parts]
    users.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unreferenced_definitions(src, users) == []
