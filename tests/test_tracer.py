"""The benchmark tracer still finds every layer it wraps.

``perfbench/tracer.py`` patches ``stab`` functions by name, so a renamed
layer would only show up as a crash of a traced benchmark run.  This test
loads the tracer from its file, installs and removes both of its passes,
and checks that the patched ``Mat.solve`` is the one the library calls.
"""

import importlib.util
from pathlib import Path

from stab.domains import ZZ
from stab.matrices import Mat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_both_passes():
    tracer_mod = load_tracer()
    solve, hnf = Mat.__dict__["solve"], Mat.__dict__["hnf"]
    for arith in (False, True):
        tracer = tracer_mod.Tracer()
        try:
            tracer.install(arith=arith)
            x = Mat(ZZ, [[2, 0], [0, 3]]).solve(Mat(ZZ, [[4], [9]]))
        finally:
            tracer.uninstall()
        assert x == Mat(ZZ, [[2], [3]])
        if arith:
            assert tracer.calls.get("domains.divmod", 0) > 0
        else:
            assert tracer.calls["matrices.solve"] == 1
            assert tracer.calls["matrices.Mat"] > 0
        assert Mat.__dict__["solve"] is solve and Mat.__dict__["hnf"] is hnf
