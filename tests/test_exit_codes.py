"""Every exception type the package raises is caught by an ``except`` arm of ``cli.main``.

Each ``raise X(...)`` in the package's modules is resolved through its module's
namespace (``np.linalg.LinAlgError``, ``FormatError``, ...) to a class, and
must be a subclass of a class that one of ``cli.main``'s arms catches, so no
failure the library reports reaches the user as a traceback.
"""

import ast
import builtins
import importlib
from pathlib import Path

import qstkit
from qstkit import cli

SRC = Path(qstkit.__file__).parent


def resolve(node: ast.expr, namespace: dict):
    """The object a dotted name such as ``np.linalg.LinAlgError`` names in ``namespace``."""
    if isinstance(node, ast.Attribute):
        return getattr(resolve(node.value, namespace), node.attr)
    assert isinstance(node, ast.Name), f"not a dotted name: {ast.unparse(node)}"
    return namespace[node.id] if node.id in namespace else getattr(builtins, node.id)


def raised_types(source: str, namespace: dict) -> dict[str, type]:
    """Each class that a ``raise`` statement of ``source`` raises, by its name there."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found[ast.unparse(exc)] = resolve(exc, namespace)
    return found


def caught_types() -> list[type]:
    """The classes named by the ``except`` arms of ``cli.main``."""
    main = next(node for node in ast.parse((SRC / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = []
    for handler in (h for node in ast.walk(main) if isinstance(node, ast.Try)
                    for h in node.handlers):
        names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught += [resolve(name, vars(cli)) for name in names]
    return caught


def unmapped(raised: dict[str, type]) -> list[str]:
    caught = tuple(caught_types())
    return sorted(name for name, cls in raised.items() if not issubclass(cls, caught))


def test_every_raised_type_has_an_exit_code():
    raised = {}
    for path in sorted(SRC.glob("*.py")):
        namespace = vars(importlib.import_module(f"qstkit.{path.stem}"))
        found = raised_types(path.read_text(), namespace)
        assert unmapped(found) == [], path.name
        raised |= found
    assert {ValueError, ArithmeticError} <= set(raised.values())


def test_an_unmapped_raise_is_seen():
    source = "def f(x):\n    if x:\n        raise KeyError(x)\n    raise FormatError('bad')\n"
    assert unmapped(raised_types(source, vars(cli))) == ["KeyError"]
