"""``Network.predict`` is the one inference path.

Only the network's own layer loop, ``Network.predict`` and the training step
``compute_gradients`` may call a method named ``forward``; any other call
would forward rows in chunks of its own length, and a row's bits would then
depend on the rows around it. The test parses the package's modules and
attributes each ``.forward(...)`` call to the top-level function or method
(or the module body) that contains it.
"""

import ast
from pathlib import Path

import qstkit

SRC = Path(qstkit.__file__).parent
ALLOWED = {"neuralnet.Network.forward", "neuralnet.Network.predict",
           "neuralnet.compute_gradients"}


def forward_callers(path: Path) -> set[str]:
    """``module.function`` or ``module.Class.method`` of every ``.forward`` call in ``path``;
    a call outside any function counts as ``module.<module>``."""
    scopes = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                        else node.name, item) for item in node.body]
        else:
            scopes.append((node.name if isinstance(node, ast.FunctionDef) else "<module>", node))
    return {f"{path.stem}.{name}" for name, scope in scopes for call in ast.walk(scope)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "forward"}


def test_only_predict_and_training_call_forward():
    assert set().union(*(forward_callers(path) for path in SRC.glob("*.py"))) == ALLOWED


def test_nested_and_module_level_calls_are_seen(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("net.forward(x)\n\nclass A:\n    def f(self):\n        def g():\n"
                      "            return self.net.forward(x)\n\ndef h(net):\n"
                      "    return [net.forward(r) for r in rows]\n")
    assert forward_callers(source) == {"m.<module>", "m.A.f", "m.h"}
