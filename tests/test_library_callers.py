"""Every public function and class of the package has a caller in the package.

Library code that only tests call is either given a real caller or deleted,
so this test parses the package's modules and fails on a public top-level
function or class, or a public method of a top-level class, whose name no module
refers to. A reference is a name, an attribute or an imported name, matched by
name; docstrings do not count.
"""

import ast
from pathlib import Path

import qstkit

def test_every_public_name_has_a_library_caller():
    package = Path(qstkit.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
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
    uncalled = [qualified for qualified, name in defined
                if not name.startswith("_") and name not in referenced]
    assert uncalled == []
