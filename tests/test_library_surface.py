"""Every public ``def`` in ``src/stab`` has a library caller, save a named few.

A definition counts as called when its name appears as a ``Name`` or an
``Attribute`` anywhere in ``src/stab``, or when ``stab/__init__.py`` exports
it.  The check goes by name only: a dead method that shares its name with
one that is called (``map``, ``contains``, ``quotient``, ...) counts as
called, so a dead definition of that kind can hide here.
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
    defs, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    defs.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                used.update(alias.asname or alias.name for alias in node.names)
    return defs, used


def test_uncalled_public_definitions_are_exactly_the_kept_ones():
    defs, used = _public_defs_and_used_names()
    assert defs - used == set(KEPT_UNCALLED)
