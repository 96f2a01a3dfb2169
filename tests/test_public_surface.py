"""Every name that ``sparse_sdp`` exports is used by the program itself.

A name counts as used when code in ``src/`` (other than ``__init__.py``)
or a non-test module of ``perfbench/`` refers to it, as a name or an
attribute, or when ``perfbench/layers.py`` lists it in ``FUNCTIONS``,
which the traced benchmark wraps by name.  Docstrings and comments do
not count, so a public name that only tests call fails here.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparse_sdp"
LAYERS_PATH = ROOT / "perfbench" / "layers.py"

_spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def exported_names():
    """The names ``__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced_names(paths):
    """Every name and attribute read or written in the code of ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_")]
    used = referenced_names(sources) | {attr for _, _, attr in layers.FUNCTIONS}
    exported = exported_names()
    assert exported
    assert sorted(exported - used) == []
