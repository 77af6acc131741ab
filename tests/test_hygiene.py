"""Source hygiene: no module under src/ or tests/ imports a name it never
uses, src/ defines nothing that only the tests use, and no parameter
default in src/ is one that only the tests rely on.

The project configures no linter, so these AST scans stand in for the
rules it needs.  A package __init__.py is skipped by the import scan:
re-exporting is its job.  But a re-export is no use: a definition in src/
must be read, and a default relied on, by another src/ module, a script,
the perfbench harness or the acceptance gate.
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


def src_and_readers() -> tuple[dict[str, str], list[str]]:
    """The src modules by path, and the sources outside src/ that read them:
    the scripts, perfbench outside its tests, and the acceptance gate."""
    src = {str(path.relative_to(ROOT)): path.read_text()
           for path in sorted((ROOT / "src").rglob("*.py"))}
    users = [path.read_text() for top in ("scripts", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py")) if "tests" not in path.parts]
    users.append((ROOT / "tests" / "test_acceptance.py").read_text())
    return src, users


def test_no_definitions_in_src_that_only_tests_use():
    assert unreferenced_definitions(*src_and_readers()) == []


def unrelied_defaults(src: dict[str, str], users: list[str]) -> list[str]:
    """'module: function(param)' for each parameter default in the src
    modules that no call in a src or user module relies on.  A call relies
    on a default when it passes that parameter neither by position nor by
    keyword, or when it passes *args or **kwargs, which may leave any of
    them out.  Calls match definitions by name, as in the definitions scan:
    f(...) and x.f(...) both call every function or method f, a call to a
    class calls its __init__, and a method's self or cls takes no argument
    of the call.  Dunder methods other than __init__ are skipped."""
    calls: dict[str, list[tuple[bool, int, set]]] = {}
    for source in [*src.values(), *users]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                spread = (any(isinstance(a, ast.Starred) for a in node.args)
                          or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (spread, len(node.args), {k.arg for k in node.keywords}))
    out = []

    def visit(module: str, node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(module, child, child.name)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(module, child, cls)
                continue
            visit(module, child, None)
            if child.name.startswith("__") and child.name != "__init__":
                continue
            args = child.args
            params = [*args.posonlyargs, *args.args]
            if cls and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in child.decorator_list):
                params = params[1:]
            first = len(params) - len(args.defaults)
            defaults = [(p.arg, i) for i, p in enumerate(params) if i >= first]
            defaults += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
            name = cls if child.name == "__init__" else child.name
            for param, pos in defaults:
                if not any(spread or (param not in keywords and (pos is None or npos <= pos))
                           for spread, npos, keywords in calls.get(name, [])):
                    where = f"{cls}.{child.name}" if cls else child.name
                    out.append(f"{module}: {where}({param})")

    for module, source in src.items():
        visit(module, ast.parse(source), None)
    return sorted(out)


def test_scan_finds_defaults_only_tests_rely_on():
    src = {"m": "def f(a, b=1, *, c=2, d=3): pass\n"
                "def g(a=0): pass\n"
                "class C:\n    def __init__(self, x, y=0): pass\n"
                "    def meth(self, z=1): pass\n"
                "    @staticmethod\n    def st(z=1): pass\n"
                "    def __eq__(self, o=None): pass\n"}
    users = ["f(0, c=5)\nf(0, 1, c=5, d=6)\ng(*[])\nC(1, 2)\nobj.meth(4)\nC.st()\n"]
    # b and d are left out by the first call of f; c is passed by both
    assert unrelied_defaults(src, users) == ["m: C.__init__(y)", "m: C.meth(z)", "m: f(c)"]
    # **kwargs may leave out any default, as *args does for g
    assert unrelied_defaults(src, [users[0] + "f(1, **{})\n"]) == \
        ["m: C.__init__(y)", "m: C.meth(z)"]
    # a call left in the module that defines the function is a reader too
    src["m"] += "C(1)\nC(1).meth()\n"
    assert unrelied_defaults(src, users) == ["m: f(c)"]


def test_no_defaults_in_src_that_only_tests_rely_on():
    assert unrelied_defaults(*src_and_readers()) == []
