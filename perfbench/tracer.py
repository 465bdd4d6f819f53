"""Outside-in tracer: wraps the public functions of each ``stab`` layer.

Nothing under ``src/stab`` knows about it.  :func:`install` replaces each
listed function at its class attribute, and replaces every by-name binding of
a module-level function in the loaded ``stab.*`` modules (for example
``stab.scan.ass``), so calls made through either route are seen.  Spans live
only on an in-memory stack; each closing span adds its duration to its own
name and to its parent's child time, so a name's self time is its span time
minus the time of the wrapped spans it caused.  Nothing is written while the
workload runs; :meth:`Tracer.metrics` reports the totals at the end.
"""

from __future__ import annotations

import sys
import time

# Domain arithmetic is called so often that timing it would inflate every
# caller's self time, so it is traced in a pass of its own.
ARITH_OPS = ("mul", "divmod", "gcd_ext")


def _mat_key(mat, *args):
    return hash((mat.domain, mat.data))


def _factor_key(domain, a):
    return hash((domain, a))


def _factor_size(domain, a):
    # Bit length over Z, degree over GF(p)[x].
    return abs(a).bit_length() if isinstance(a, int) else len(a) - 1


class Tracer:
    """Per-name call counts, span time, self time and input fingerprints."""

    def __init__(self):
        self.calls = {}
        self.self_time = {}
        self.keys = {}
        self.max_size = {}
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame[0]

    def exclude(self, seconds):
        """Keep ``seconds`` spent outside the program out of the open span's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    def span(self, name, fn, key=None, size=None):
        """``fn`` wrapped in a span called ``name``.

        ``key(*args)`` fingerprints the input for ``distinct_frac`` and
        ``size(*args)`` measures it for ``max_size``.
        """
        def traced(*args, **kwargs):
            if key is not None:
                self.keys.setdefault(name, set()).add(key(*args))
            if size is not None:
                s = size(*args)
                if s > self.max_size.get(name, -1):
                    self.max_size[name] = s
            frame, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, start)
        traced.__wrapped__ = fn
        return traced

    def class_span(self, prefix, fn):
        """Like :meth:`span`, named ``prefix.<class of self>`` per call."""
        def traced(obj, *args, **kwargs):
            name = f"{prefix}.{type(obj).__name__}"
            frame, start = self._open(name)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._close(name, frame, start)
        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """``fn`` with its calls counted but not timed."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, wrapper):
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "stab" or mod_name.startswith("stab."):
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, wrapper)

    def install(self, arith):
        """Wrap the layer functions; with ``arith`` only the domain arithmetic."""
        from stab import domains, matrices, modules, invariants, functors
        from stab import scan, scenario, cli

        backends = (domains.Integers, domains.PolyOverFp)
        if arith:
            for cls in backends:
                for op in ARITH_OPS:
                    self._patch(cls, op, self.span(f"domains.{op}", vars(cls)[op]))
            return
        for cls in backends:
            self._patch(cls, "factor", self.span("domains.factor", cls.factor,
                                                 _factor_key, _factor_size))
        Mat = matrices.Mat
        self._patch(Mat, "__init__", self.counter("matrices.Mat", Mat.__init__))
        self._patch(Mat, "hnf", self.span("matrices.hnf", Mat.hnf, _mat_key))
        self._patch(Mat, "_snf_full", self.span("matrices.snf", Mat._snf_full, _mat_key))
        self._patch(Mat, "solve", self.span("matrices.solve", Mat.solve))
        for cls in (modules.FpModule, modules.Morphism, modules.HomSpace):
            self._patch(cls, "__init__",
                        self.span(f"modules.{cls.__name__}", cls.__init__))
        for attr in ("subquotient", "power_quotient"):
            self._patch(modules.FpModule, attr,
                        self.span(f"modules.{attr}", vars(modules.FpModule)[attr]))
        for attr in ("ass", "depth"):
            self._patch_function(invariants, attr,
                                 self.span(f"invariants.{attr}", getattr(invariants, attr)))
        for cls in _subclasses(functors.Functor):
            if "__call__" in vars(cls):
                self._patch(cls, "__call__", self.class_span("functors.eval", cls.__call__))
        for cls in _subclasses(scan.Family):
            if "generate" in vars(cls):
                self._patch(cls, "generate", self.span("scan.generate", cls.generate))
        for attr in ("scan_rows", "artin_rees_probe"):
            self._patch_function(scan, attr, self.span(f"scan.{attr}", getattr(scan, attr)))
        self._patch_function(scenario, "parse_scenario",
                             self.span("scenario.parse_scenario", scenario.parse_scenario))
        for attr in ("report_csv", "report_json"):
            self._patch_function(scenario, attr,
                                 self.span("scenario.report", getattr(scenario, attr)))
        self._patch_function(cli, "main", self.span("cli.main", cli.main))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def metrics(self, names, speed):
        """Values for the per-layer metric ``names`` (zero for unseen layers).

        Self times are multiplied by ``speed``, the pass's reference-speed
        seconds per wall second, so they are in the units of ``wall_s``.
        """
        out = {}
        for metric in names:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                if layer == "functors.eval":
                    value = sum(c for n, c in self.calls.items()
                                if n.startswith("functors.eval."))
                else:
                    value = self.calls.get(layer, 0)
            elif kind == "self_s":
                value = self.self_time.get(layer, 0.0) * speed
            elif kind == "distinct_frac":
                calls = self.calls.get(layer, 0)
                value = len(self.keys.get(layer, ())) / calls if calls else 0.0
            elif kind == "max_size":
                value = self.max_size.get(layer, 0)
            else:
                continue
            out[metric] = value
        return out


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(_subclasses(sub))
    return seen
