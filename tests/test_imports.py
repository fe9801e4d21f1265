"""Every name a Python file of the project imports is used by that file.

The files are the `repart` modules and the `.py` files of `tests/`,
`tools/` and `perfbench/`.

No linter ships with the project, so this is an `ast` check in the spirit
of pyflakes' F401. A name counts as used when the module reads it
anywhere. Exempt are `from __future__` imports, names re-exported
through `__all__`, and import lines marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "repart"
SOURCES = sorted(PACKAGE.glob("*.py")) + [
    path
    for folder in ("tests", "tools", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
]


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


def _source_id(path):
    """A `repart` module by its file name, any other file by its path."""
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", SOURCES, ids=_source_id)
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
