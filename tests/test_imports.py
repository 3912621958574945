"""Every imported name is used: an ast check over the package, its tests and scripts.

No linter is a dependency of the project, so this check stands in for the
unused-import rule of one.  A name counts as used when it is read anywhere
in its module (scopes are not told apart) or listed in the module's
__all__; `from __future__` imports are features, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/angen", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, each with its line."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_check_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom x import a, b\n__all__ = ['a']\nnp.ones(1)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
