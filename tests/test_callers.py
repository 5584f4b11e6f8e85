"""Every function and class in src/hslog is reached from src/hslog itself.

A name counts as reached when the package's code reads it, as a name or an
attribute; a definition, a docstring or a test does not reach it.  And the
exponent r^beta is formed in ``functionals``' kernels alone (and in
``shooting``'s scalar right-hand side): the modules above them read no
``beta``.  The modules are layered: each imports only modules below it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hslog"

# definitions no package code reaches, each kept for the reason given
ALLOWED = {
    "energy_pairing": "the pairing that radial.dual_norm is checked against",
}


def callerless(src: Path) -> set[str]:
    defined, read = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name for name in defined - read
            if not (name.startswith("__") and name.endswith("__"))}


def test_no_callerless_definition():
    assert callerless(SRC) == set(ALLOWED)


def test_no_beta_above_the_kernels():
    for name in ("analysis", "bliss", "orlicz"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "beta"], name


# the package's modules, lowest first
LAYERS = ("params", "dop853", "radial", "functionals", "bliss", "analysis", "orlicz",
          "shooting", "cli")


def upward_imports(src: Path) -> set[tuple[str, str, int]]:
    """(module, imported module, line) of every import, at any depth, of a
    module of ``LAYERS`` that is not below the importer."""
    found = set()
    for name in LAYERS:
        tree = ast.parse((src / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "hslog":
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hslog."):
                targets = [node.module.removeprefix("hslog.")]
            elif isinstance(node, ast.Import):
                targets = [alias.name.removeprefix("hslog.") for alias in node.names
                           if alias.name.startswith("hslog.")]
            else:
                continue
            found |= {(name, target, node.lineno) for target in targets
                      if LAYERS.index(target) >= LAYERS.index(name)}
    return found


def test_layers_name_every_module():
    assert {path.stem for path in SRC.glob("*.py")} == {"__init__", *LAYERS}


def test_each_module_imports_only_modules_below_it():
    assert upward_imports(SRC) == set()
