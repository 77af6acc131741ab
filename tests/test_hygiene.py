"""Source hygiene: no module under src/ or tests/ imports a name it never uses.

The project configures no linter, so this AST scan stands in for the one
rule it needs.  A package __init__.py is skipped: re-exporting is its job.
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
