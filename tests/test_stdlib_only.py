"""The library has no runtime dependencies: every ``import`` and ``from``
in ``src/stab`` names a standard-library module or a module of ``stab``."""

import ast
import sys
from pathlib import Path

import stab

PACKAGE = Path(stab.__file__).resolve().parent


def _imports(tree):
    """``(line, top-level module)`` of every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # A relative import (``from . import x``) stays inside the package.
            yield node.lineno, "stab" if node.level else node.module.partition(".")[0]


def test_library_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    foreign = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path in sources
               for line, name in _imports(ast.parse(path.read_text(), str(path)))
               if name != "stab" and name not in sys.stdlib_module_names]
    assert not foreign, f"imports outside the standard library: {foreign}"
