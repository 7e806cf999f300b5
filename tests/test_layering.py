"""The package's modules form layers: each imports only modules below it.

Every intra-package import counts, including ``from . import x`` inside a
function body, so a cycle cannot hide behind a deferred import. No module reads
another's single-underscore names: what two modules share is public. The test
oracles import nothing but numpy, so they stay independent of the package.
"""

import ast
from pathlib import Path

import qstkit

LAYERS = ("qcore", "sampling", "cholesky", "tomography", "neuralnet", "adapt", "cli")
# The package entry points import the layers; nothing imports them.
ENTRY_POINTS = ("__init__", "__main__")
SRC = Path(qstkit.__file__).parent


def package_imports(path: Path) -> set[str]:
    """Names of the package's modules that the module at ``path`` imports, anywhere."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == "qstkit":
                base = node.module if node.level == 1 else None
                found |= {base} if base else {alias.name for alias in node.names}
            elif node.module and node.module.startswith("qstkit."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("qstkit.")}
    return found


def private_reads(path: Path) -> set[str]:
    """``module._name`` attributes of other package modules that the module at ``path``
    reads, or imports by name, anywhere."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, names = node.value.id, [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module, names = node.module, [alias.name for alias in node.names]
        else:
            continue
        if module in LAYERS and module != path.stem:
            found |= {f"{module}.{name}" for name in names
                      if name.startswith("_") and not name.startswith("__")}
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS + ENTRY_POINTS)


def test_no_module_imports_a_later_layer():
    upward = {
        module: sorted(imported for imported in package_imports(SRC / f"{module}.py")
                       if imported not in LAYERS[:rank])
        for rank, module in enumerate(LAYERS)
    }
    assert {module: names for module, names in upward.items() if names} == {}


def test_sampling_imports_no_package_module():
    """The sampler only draws factors; every rule about their states is checked in
    ``qcore``, where the states are used."""
    assert package_imports(SRC / "sampling.py") == set()


def test_deferred_imports_are_seen(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from . import qcore\nfrom .tomography import measure\n"
                      "import qstkit.cholesky\n\ndef f():\n    from qstkit import adapt\n")
    assert package_imports(source) == {"qcore", "tomography", "cholesky", "adapt"}


def test_no_module_reads_another_modules_private_names():
    reads = {module: sorted(private_reads(SRC / f"{module}.py"))
             for module in LAYERS + ENTRY_POINTS}
    assert {module: names for module, names in reads.items() if names} == {}


def test_private_reads_are_seen(tmp_path):
    source = tmp_path / "adapt.py"
    source.write_text("from . import sampling\nfrom .qcore import _norm, fidelity\n\n"
                      "def f():\n    return sampling._BLOCK, sampling.BLOCK, adapt._own, "
                      "sampling.__name__\n")
    assert private_reads(source) == {"sampling._BLOCK", "qcore._norm"}


def test_oracles_import_only_numpy():
    oracles = Path(__file__).with_name("oracles.py")
    imported = set()
    for node in ast.walk(ast.parse(oracles.read_text(), str(oracles))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"numpy"}
