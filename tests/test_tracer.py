"""The benchmark tracer still finds every layer it wraps.

``perfbench/tracer.py`` patches ``stab`` functions by name, so a renamed
layer would only show up as a crash of a traced benchmark run.  These tests
load the tracer from its file, install and remove both of its passes, and
check that the patched ``Mat.solve`` is the one the library calls.  The
functor layer is traced per class, ``functors.eval.<Class>``: a renamed
class would not crash but silently zero its metric, so the classes named in
``BENCHMARK.json`` are checked too.
"""

import importlib.util
import json
from pathlib import Path

from stab import functors
from stab.domains import ZZ
from stab.matrices import Mat
from stab.modules import FpModule, Ideal

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def traced_functor_classes():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return [m["name"].split(".")[2] for m in metrics
            if m["name"].startswith("functors.eval.") and m["name"].endswith(".self_s")]


def test_benchmark_functor_classes_are_traced_functors():
    names = traced_functor_classes()
    assert "GammaFunctor" in names and "MiddleFiniteFunctor" in names
    for name in names:
        cls = getattr(functors, name, None)
        assert isinstance(cls, type) and issubclass(cls, functors.Functor), name
        # The tracer wraps every ``__call__`` defined on a Functor subclass,
        # so the one this class runs must not be the abstract interface's.
        owner = next(c for c in cls.__mro__ if "__call__" in vars(c))
        assert owner is not functors.Functor and issubclass(owner, functors.Functor), name


def test_shared_functor_bodies_are_traced_under_the_concrete_class():
    tracer = load_tracer().Tracer()
    n = FpModule.from_invariants(ZZ, 0, [12])
    try:
        tracer.install(arith=False)
        functors.GammaFunctor(Ideal(ZZ, 2))(n)
        functors.ModGamma(Ideal(ZZ, 2))(n)
        functors.tor_functor(n, 1)(n)
        functors.gamma_as_middle_finite(Ideal(ZZ, 3))(n)
        functors.HomFrom(n)(n)
    finally:
        tracer.uninstall()
    for name in ("GammaFunctor", "ModGamma", "ComplexHomology", "MiddleFiniteFunctor",
                 "HomFrom"):
        assert tracer.calls[f"functors.eval.{name}"] == 1, name
