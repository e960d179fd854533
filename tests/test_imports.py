"""The repository's one lint: every name a module imports is read somewhere
in that module.  Names listed in a module's ``__all__`` count as read, which
covers the package re-exports; ``from __future__`` imports are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom a.b import c, d as e\n"
    source += "__all__ = ['c']\nprint(os.sep, e)\n"
    assert unused_imports(source) == ["line 2: system"]


def test_no_module_imports_a_name_it_never_reads():
    found = {}
    for path in sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py"),
                        *ROOT.joinpath("tools").glob("*.py")]):
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
