"""Every function, class and module-level name of the package has a user in the package.

Library code that only tests call is either given a real caller or deleted,
so this test parses the package's modules and fails on a top-level function or
class, or a method of a top-level class, whose name no module refers to, private
(single-underscore) names included; and on a module-level name that no module
loads. A reference is a loaded name, a loaded attribute or an imported name,
matched by name; docstrings do not count. Dunder names (``__init__``,
``__version__``, ``__all__``) are the interpreter's and are left out.
"""

import ast
from pathlib import Path

import qstkit


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _trees() -> dict[str, ast.Module]:
    package = Path(qstkit.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _referenced(trees) -> set[str]:
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def _uncalled(trees, private: bool) -> list[str]:
    """The public or the private (non-dunder) top-level functions and classes, and methods
    of top-level classes, whose name no module refers to."""
    defined = [
        (f"{module}.{node.name}", node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ] + [
        (f"{module}.{cls.name}.{node.name}", node.name)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]
    referenced = _referenced(trees)
    return [qualified for qualified, name in defined
            if name.startswith("_") == private and not _is_dunder(name)
            and name not in referenced]


def test_every_public_name_has_a_library_caller():
    assert _uncalled(_trees(), private=False) == []


def test_every_private_name_has_a_library_caller():
    assert _uncalled(_trees(), private=True) == []


def test_every_module_level_name_is_loaded():
    trees = _trees()
    assigned = [
        (f"{module}.{target.id}", target.id)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
    ]
    referenced = _referenced(trees)
    unloaded = [qualified for qualified, name in assigned
                if not _is_dunder(name) and name not in referenced]
    assert unloaded == []
