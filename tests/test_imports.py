"""Every name a `repart` module imports is used by that module.

No linter ships with the project, so this is an `ast` check in the spirit
of pyflakes' F401. A name counts as used when the module reads it
anywhere. Exempt are `from __future__` imports, names re-exported
through `__all__`, and import lines marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "repart").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_catches_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from collections import Counter, deque\n"
        "from itertools import islice  # noqa: F401\n"
        "__all__ = ['deque']\n"
        "print(json.dumps(1))\n"
    )
    assert unused_imports(source) == [(3, "Counter")]
