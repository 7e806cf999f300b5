"""Every name a module of the package imports is used in that module.

No linter runs on this repository, so this test parses each module and fails
on an imported name that the module never loads. A use is a name the code
reads (an attribute chain counts through its root) or an entry of
``__all__``; docstrings and comments do not count. ``__future__`` imports
are directives, not names. A name imported on a ``# noqa: F401`` line is a
deliberate re-export and is exempt.
"""

import ast
from pathlib import Path

import qstkit

SRC = Path(qstkit.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """``line: name`` of each name the module at ``path`` imports but never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := unused_imports(path))}
    assert unused == {}


def test_unused_and_exempt_imports_are_told_apart(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from __future__ import annotations\n\nimport os.path\nimport sys\n"
                      "from . import qcore\nfrom .a import b as c, d  # noqa: F401\n"
                      "from typing import Iterable\n\n__all__ = ['sys']\n\n"
                      "def f(x: Iterable):\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["5: qcore"]
