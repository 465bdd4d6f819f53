"""Every public ``def`` in ``src/stab`` has a library caller, save a named few.

A function counts as called when its name appears as a ``Name`` or an
``Attribute`` anywhere in ``src/stab``, or when ``stab/__init__.py`` exports
it.  A method, a ``def`` in a class body, counts as called only when its
name appears as an ``Attribute`` (``.name``): a local variable or a
parameter of the same name does not call it.  The check still goes by name
only, so a dead method whose name another class's method shares, and that
one is called, counts as called too (``map``, ``contains``, ``quotient``,
``is_zero``, ...); such a method needs a search for its own callers.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stab"

# The public definitions that no library code calls, each with why it stays.
KEPT_UNCALLED = {
    "subquotient": "perfbench/tracer.py wraps it by name; families call _subquotient",
    "gcd_ext": "the backends' Bezout step: test references call it, perfbench/tracer.py wraps it",
    "gamma_as_middle_finite": "the paper's example of a middle-finite functor; tier-1 runs its laws",
    "is_cmc": "CmcSet's cmc predicate for users; tau_gens asks for the cogenerator itself",
    "cyclic": "builds R/(d) for users; the library builds diagonal modules by from_invariants",
    "lcm": "the backends' lcm beside gcd, for users such as the test oracles",
}


def _public_defs_and_used_names():
    """``(functions, methods, names, attributes)`` over ``src/stab``."""
    functions, methods, names, attributes = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        in_class = set()
        # Breadth first, so a class is seen before the defs in its body.
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                in_class.update(map(id, node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    (methods if id(node) in in_class else functions).add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in node.names)
    return functions, methods, names, attributes


def test_uncalled_public_definitions_are_exactly_the_kept_ones():
    functions, methods, names, attributes = _public_defs_and_used_names()
    uncalled = (functions - names - attributes) | (methods - attributes)
    assert uncalled == set(KEPT_UNCALLED)
