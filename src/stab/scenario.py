"""Scenario files: parsing, validation, execution, and report emission.

A scenario is a JSON document naming a backend, modules, ideals, submodule
generator matrices and morphisms, then a family, a functor, scan parameters
and optional expectations.  Elements serialize as decimal strings (integers)
or coefficient arrays low to high degree (polynomials); matrices as nested
row-major arrays; modules either as ``{"relations": [[...]]}`` or as
``{"rank": r, "factors": [...]}``.

Reports are written as a flat CSV (columns ``n, invariant_factors, ass,
depth``) and a structured JSON document carrying the detection verdicts.
Output is deterministic: the same scenario file yields byte-identical
reports.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .domains import domain_from_descriptor
from .matrices import Mat
from .modules import FpModule, Morphism, Ideal, NotWellDefined
from .invariants import CmcSet, DEPTH_INF
from .functors import (IdentityFunctor, HomFrom, CoherentFunctor, ComplexHomology,
                       GammaFunctor, ModGamma, TauFunctor, ModTau,
                       MiddleFiniteFunctor, EndSummand,
                       OscillatingFunctor, ExponentSet, ext_functor, tor_functor)
from .scan import (QuotientPowers, Layers, GradedLayers, SubquotientFamily,
                   KwHomology, scan_rows, artin_rees_probe)


class ScenarioError(ValueError):
    """A validation failure, anchored at a JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(doc, key, path, kind=None):
    if not isinstance(doc, dict):
        raise ScenarioError(path, "expected an object")
    if key not in doc:
        raise ScenarioError(path, f"missing required field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    return value


def _section(doc, key):
    """The object of named definitions under ``key``, empty when absent."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(key, "expected an object of named definitions")
    return value


def _elem(domain, value, path):
    try:
        return domain.elem_from_json(value)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(path, str(exc)) from exc


def _mat(domain, rows, path, expect_rows=None, expect_cols=None):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ScenarioError(path, "matrix must be a nested array, row-major")
    data = [[_elem(domain, a, f"{path}[{i}][{j}]") for j, a in enumerate(row)]
            for i, row in enumerate(rows)]
    if expect_rows is not None and len(data) != expect_rows:
        raise ScenarioError(path, f"expected {expect_rows} rows, got {len(data)}")
    width = len(data[0]) if data else (expect_cols or 0)
    if any(len(r) != width for r in data):
        raise ScenarioError(path, "ragged matrix")
    if expect_cols is not None and width != expect_cols:
        raise ScenarioError(path, f"expected {expect_cols} columns, got {width}")
    nrows = len(data) if expect_rows is None else expect_rows
    return Mat(domain, data, nrows, width)


class Scenario(NamedTuple):
    name: str
    domain: object
    family: object
    functor: object
    functor_doc: dict
    depth_ideal: Optional[Ideal]
    horizon: int
    window: int
    artin_rees: Optional[dict]
    expect: Optional[dict]


class _Env:
    """Named definitions plus resolution helpers for one scenario document."""

    def __init__(self, domain, doc):
        self.domain = domain
        self.modules = {}
        self.ideals = {}
        self.submodules = {}
        self.morphisms = {}
        for name, mdoc in _section(doc, "modules").items():
            try:
                self.modules[name] = FpModule.from_json(domain, mdoc)
            except (ValueError, TypeError) as exc:
                raise ScenarioError(f"modules.{name}", str(exc)) from exc
        for name, idoc in _section(doc, "ideals").items():
            self.ideals[name] = Ideal(domain, _elem(domain, idoc, f"ideals.{name}"))
        for name, sdoc in _section(doc, "submodules").items():
            self.submodules[name] = _mat(domain, sdoc, f"submodules.{name}")
        for name, fdoc in _section(doc, "morphisms").items():
            self.morphisms[name] = self.morphism(fdoc, f"morphisms.{name}")

    def module(self, ref, path):
        if isinstance(ref, str):
            if ref not in self.modules:
                raise ScenarioError(path, f"unknown module {ref!r}")
            return self.modules[ref]
        if isinstance(ref, dict):
            try:
                return FpModule.from_json(self.domain, ref)
            except (ValueError, TypeError) as exc:
                raise ScenarioError(path, str(exc)) from exc
        raise ScenarioError(path, "module reference must be a name or an inline object")

    def ideal(self, ref, path):
        if isinstance(ref, str) and ref in self.ideals:
            return self.ideals[ref]
        return Ideal(self.domain, _elem(self.domain, ref, path))

    def submodule(self, ref, module, path):
        if isinstance(ref, str):
            if ref not in self.submodules:
                raise ScenarioError(path, f"unknown submodule {ref!r}")
            gens = self.submodules[ref]
        else:
            gens = _mat(self.domain, ref, path)
        if gens.rows != module.ambient:
            raise ScenarioError(path, "generator rows do not match the ambient rank")
        return gens

    def morphism(self, ref, path):
        if isinstance(ref, str):
            if ref not in self.morphisms:
                raise ScenarioError(path, f"unknown morphism {ref!r}")
            return self.morphisms[ref]
        if not isinstance(ref, dict):
            raise ScenarioError(path, "morphism must be a name or an inline object")
        source = self.module(_require(ref, "source", path), f"{path}.source")
        target = self.module(_require(ref, "target", path), f"{path}.target")
        mat = _mat(self.domain, _require(ref, "matrix", path, list),
                   f"{path}.matrix", expect_rows=target.ambient,
                   expect_cols=source.ambient)
        try:
            return Morphism(source, target, mat)
        except NotWellDefined as exc:
            raise ScenarioError(path, str(exc)) from exc

    def cmc_set(self, doc, path):
        if not isinstance(doc, dict):
            raise ScenarioError(path, "set must be an object")
        if "elements" in doc:
            elems = [_elem(self.domain, e, f"{path}.elements[{i}]")
                     for i, e in enumerate(_require(doc, "elements", path, list))]
            return CmcSet.explicit(self.domain, elems)
        if "closure" in doc:
            gens = [_elem(self.domain, e, f"{path}.closure[{i}]")
                    for i, e in enumerate(_require(doc, "closure", path, list))]
            return CmcSet.closure(self.domain, gens)
        raise ScenarioError(path, "set needs 'elements' or 'closure'")


def _exponent_set(doc, path):
    if not isinstance(doc, dict):
        raise ScenarioError(path, "exponent set must be an object")
    if "parity" in doc:
        if doc["parity"] == "even":
            return ExponentSet(progressions=[(2, 2)])
        if doc["parity"] == "odd":
            return ExponentSet(progressions=[(1, 2)])
        raise ScenarioError(path, "parity must be 'even' or 'odd'")
    try:
        return ExponentSet(doc.get("members", ()),
                           [tuple(p) for p in doc.get("progressions", ())])
    except (ValueError, TypeError) as exc:
        raise ScenarioError(path, str(exc)) from exc


def build_functor(env, doc, path="functor"):
    kind = _require(doc, "kind", path, str)
    if kind == "identity":
        return IdentityFunctor()
    if kind == "hom_from":
        return HomFrom(env.module(_require(doc, "module", path), f"{path}.module"))
    if kind == "ext1":
        return ext_functor(env.module(_require(doc, "module", path), f"{path}.module"), 1)
    if kind == "tor1":
        return tor_functor(env.module(_require(doc, "module", path), f"{path}.module"), 1)
    if kind == "coherent":
        return CoherentFunctor(env.morphism(_require(doc, "morphism", path),
                                            f"{path}.morphism"))
    if kind == "gamma":
        return GammaFunctor(env.ideal(_require(doc, "ideal", path), f"{path}.ideal"))
    if kind == "mod_gamma":
        return ModGamma(env.ideal(_require(doc, "ideal", path), f"{path}.ideal"))
    if kind == "tau":
        return TauFunctor(env.cmc_set(_require(doc, "set", path), f"{path}.set"))
    if kind == "mod_tau":
        return ModTau(env.cmc_set(_require(doc, "set", path), f"{path}.set"))
    if kind == "complex":
        d2 = env.morphism(_require(doc, "d2", path), f"{path}.d2")
        d1 = env.morphism(_require(doc, "d1", path), f"{path}.d1")
        index = doc.get("index", 1)
        try:
            return ComplexHomology(d2, d1, index)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
    if kind == "middle_finite":
        return _middle_finite(env, doc, path)
    if kind == "oscillating":
        return _oscillating(env, doc, path)
    raise ScenarioError(path, f"unknown functor kind {kind!r}")


def _end_summands(env, docs, path):
    if not isinstance(docs, list):
        raise ScenarioError(path, "expected list")
    out = []
    for i, item in enumerate(docs):
        if isinstance(item, dict) and "module" in item:
            module = env.module(item["module"], f"{path}[{i}].module")
            invert = item.get("invert")
            if invert is not None:
                invert = _elem(env.domain, invert, f"{path}[{i}].invert")
                if env.domain.is_zero(invert):
                    raise ScenarioError(f"{path}[{i}].invert", "cannot invert zero")
            out.append(EndSummand(module, invert))
        else:
            out.append(EndSummand(env.module(item, f"{path}[{i}]"), None))
    return out


def _middle_finite(env, doc, path):
    a_ends = _end_summands(env, doc.get("a", []), f"{path}.a")
    b = env.module(_require(doc, "b", path), f"{path}.b")
    c_ends = _end_summands(env, doc.get("c", []), f"{path}.c")
    a_dim = sum(s.module.ambient for s in a_ends)
    c_dim = sum(s.module.ambient for s in c_ends)
    d_a = _mat(env.domain, doc.get("d_a", []), f"{path}.d_a", expect_rows=b.ambient) \
        if doc.get("d_a") else Mat.zero(env.domain, b.ambient, a_dim)
    d_b = _mat(env.domain, doc.get("d_b", []), f"{path}.d_b", expect_rows=c_dim) \
        if doc.get("d_b") else Mat.zero(env.domain, c_dim, b.ambient)
    try:
        return MiddleFiniteFunctor(a_ends, b, c_ends, d_a, d_b)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _oscillating(env, doc, path):
    rules = {}
    if "rules" in doc:
        for i, rule in enumerate(_require(doc, "rules", path, list)):
            p = _elem(env.domain, _require(rule, "prime", f"{path}.rules[{i}]"),
                      f"{path}.rules[{i}].prime")
            rules[p] = _exponent_set(_require(rule, "set", f"{path}.rules[{i}]"),
                                     f"{path}.rules[{i}].set")
    else:
        p = _elem(env.domain, _require(doc, "prime", path), f"{path}.prime")
        rules[p] = _exponent_set(_require(doc, "set", path), f"{path}.set")
    try:
        return OscillatingFunctor(env.domain, rules)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def build_family(env, doc, path="family"):
    kind = _require(doc, "kind", path, str)
    ideal = env.ideal(_require(doc, "ideal", path), f"{path}.ideal")
    if kind in ("quotient_powers", "layers"):
        module = env.module(_require(doc, "module", path), f"{path}.module")
        cls = QuotientPowers if kind == "quotient_powers" else Layers
        return cls(module, ideal)
    if kind == "graded_layers":
        module = env.module(_require(doc, "module", path), f"{path}.module")
        gens = env.submodule(_require(doc, "submodule", path), module,
                             f"{path}.submodule")
        return GradedLayers(module, gens, ideal)
    if kind == "subquotient":
        module = env.module(_require(doc, "module", path), f"{path}.module")
        u = env.submodule(_require(doc, "u", path), module, f"{path}.u")
        v = env.submodule(_require(doc, "v", path), module, f"{path}.v")
        w = env.submodule(_require(doc, "w", path), module, f"{path}.w")
        try:
            return SubquotientFamily(module, u, v, w, ideal)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
    if kind == "kw_homology":
        alpha = env.morphism(_require(doc, "alpha", path), f"{path}.alpha")
        beta = env.morphism(_require(doc, "beta", path), f"{path}.beta")
        l_sub = env.submodule(_require(doc, "l_sub", path), alpha.source, f"{path}.l_sub")
        m_sub = env.submodule(_require(doc, "m_sub", path), alpha.target, f"{path}.m_sub")
        n_sub = env.submodule(_require(doc, "n_sub", path), beta.target, f"{path}.n_sub")
        shift = None
        if "shift" in doc:
            sdoc = doc["shift"]
            l1 = env.submodule(_require(sdoc, "l1", f"{path}.shift"), alpha.source,
                               f"{path}.shift.l1")
            l2 = env.submodule(_require(sdoc, "l2", f"{path}.shift"), alpha.source,
                               f"{path}.shift.l2")
            c = _int(_require(sdoc, "c", f"{path}.shift"), f"{path}.shift.c")
            shift = (l1, l2, c)
        try:
            return KwHomology(alpha, beta, l_sub, m_sub, n_sub, ideal, shift)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
    raise ScenarioError(path, f"unknown family kind {kind!r}")


def parse_scenario(doc):
    """Validate a scenario document and resolve every reference."""
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario must be a JSON object")
    backend = doc.get("backend", {"kind": "integers"})
    try:
        domain = domain_from_descriptor(backend)
    except (ValueError, KeyError) as exc:
        raise ScenarioError("backend", str(exc)) from exc
    env = _Env(domain, doc)
    family = build_family(env, _require(doc, "family", "$", dict))
    functor_doc = doc.get("functor", {"kind": "identity"})
    functor = build_functor(env, functor_doc)
    depth_ideal = None
    if "depth_ideal" in doc:
        depth_ideal = env.ideal(doc["depth_ideal"], "depth_ideal")
    horizon = _int(doc.get("horizon", 50), "horizon")
    window = _int(doc.get("window", 10), "window")
    artin = None
    if "artin_rees" in doc:
        adoc = doc["artin_rees"]
        artin = {
            "beta": env.morphism(_require(adoc, "beta", "artin_rees"), "artin_rees.beta"),
            "n_prime": None,
            "ideal": env.ideal(adoc.get("ideal", _require(doc, "family", "$", dict)
                                        .get("ideal")), "artin_rees.ideal"),
            "horizon": _int(adoc.get("horizon", 10), "artin_rees.horizon"),
        }
        artin["n_prime"] = env.submodule(_require(adoc, "n_prime", "artin_rees"),
                                         artin["beta"].target, "artin_rees.n_prime")
    expect = doc.get("expect")
    if expect is not None:
        _check_expect_doc(expect)
    name = doc.get("name", "scenario")
    if (not isinstance(name, str) or not name
            or any(bad in name for bad in ("/", "\\", "..", "\0"))):
        raise ScenarioError("name", "expected a file name without '/', '\\' or '..'")
    if not isinstance(doc.get("out", ""), str):
        raise ScenarioError("out", "expected a directory path")
    sc = Scenario(
        name=name, domain=domain, family=family, functor=functor,
        functor_doc=functor_doc, depth_ideal=depth_ideal, horizon=horizon,
        window=window, artin_rees=artin, expect=expect,
    )
    scan_range(sc)
    return sc


def _check_expect_doc(expect):
    """Type-check an expectation block, so that a bad one fails before the scan."""
    if not isinstance(expect, dict):
        raise ScenarioError("expect", "expected an object")
    for key in ("ass", "depth"):
        block, path = expect.get(key, {}), f"expect.{key}"
        if not isinstance(block, dict):
            raise ScenarioError(path, "expected an object")
        if not isinstance(block.get("status", ""), str):
            raise ScenarioError(f"{path}.status", "expected a string")
        if not isinstance(block.get("sequence", []), list):
            raise ScenarioError(f"{path}.sequence", "expected an array")
        if "n0_max" in block:
            _int(block["n0_max"], f"{path}.n0_max")
        if block.get("period") is not None:
            _int(block["period"], f"{path}.period")
    if "artin_rees_max" in expect:
        _int(expect["artin_rees_max"], "expect.artin_rees_max")
    if expect.get("artin_rees_d") is not None:
        _int(expect["artin_rees_d"], "expect.artin_rees_d")


class RunOutcome(NamedTuple):
    result: object
    artin_d: Optional[int]
    expect_ok: bool
    expect_failures: tuple
    horizon: int = 50
    window: int = 10


def _depth_str(v):
    if v is None:
        return ""
    if v == DEPTH_INF:
        return "inf"
    return str(int(v))


def scan_range(sc, horizon=None, window=None):
    """``(horizon, window)`` with any overrides applied, checked by the one
    rule for file values and command-line values alike: ``window >= 2``, and
    the window fits between the family's first index and ``horizon``."""
    horizon = sc.horizon if horizon is None else horizon
    window = sc.window if window is None else window
    if window < 2:
        raise ScenarioError("window", f"need window >= 2, got {window}")
    least = sc.family.scan_start + window - 1
    if horizon < least:
        raise ScenarioError("horizon", f"need horizon >= {least} for window {window} "
                                       f"from n={sc.family.scan_start}, got {horizon}")
    return horizon, window


def run_scenario(sc, horizon=None, window=None):
    """Execute the scans and probes of a parsed scenario."""
    horizon, window = scan_range(sc, horizon, window)
    result = scan_rows(sc.family, sc.functor, sc.depth_ideal, horizon, window)
    artin_d = None
    if sc.artin_rees is not None:
        artin_d = artin_rees_probe(sc.artin_rees["beta"], sc.artin_rees["n_prime"],
                                   sc.artin_rees["ideal"], sc.artin_rees["horizon"])
    failures = _check_expect(sc, result, artin_d)
    return RunOutcome(result, artin_d, not failures, tuple(failures), horizon, window)


def _check_expect(sc, result, artin_d):
    failures = []
    expect = sc.expect or {}

    def check_report(block, report, label):
        if "status" in block and report.status != block["status"]:
            failures.append(f"{label}: status {report.status!r} != {block['status']!r}")
        if "n0_max" in block:
            if report.n0 is None or report.n0 > block["n0_max"]:
                failures.append(f"{label}: n0 {report.n0} exceeds {block['n0_max']}")
        if "period" in block and report.period != block["period"]:
            failures.append(f"{label}: period {report.period} != {block['period']}")
        if "sequence" in block:
            want = block["sequence"]
            got = [v for _, v in report.observations][:len(want)]
            for (n, _), w, g in zip(report.observations, want, got):
                rendered = g.to_json() if hasattr(g, "to_json") else _depth_str(g)
                if rendered != w:
                    failures.append(f"{label}: value at n={n} is {rendered!r}, expected {w!r}")

    if "ass" in expect:
        check_report(expect["ass"], result.ass_report, "ass")
    if "depth" in expect:
        if result.depth_report is None:
            failures.append("depth: no depth ideal given")
        else:
            check_report(expect["depth"], result.depth_report, "depth")
    if "artin_rees_max" in expect:
        if artin_d is None or artin_d > expect["artin_rees_max"]:
            failures.append(f"artin_rees: d={artin_d} exceeds {expect['artin_rees_max']}")
    if "artin_rees_d" in expect and artin_d != expect["artin_rees_d"]:
        failures.append(f"artin_rees: d={artin_d} != {expect['artin_rees_d']}")
    return failures


def report_csv(sc, outcome):
    lines = ["n,invariant_factors,ass,depth"]
    D = sc.domain
    for row in outcome.result.rows:
        rank, factors = row.value.rank, row.value.factors
        cell = ";".join(["0"] * rank + [D.elem_str(d) for d in factors])
        ass_cell = ";".join(repr(p) for p in row.ass_set)
        lines.append(f"{row.n},{cell},{ass_cell},{_depth_str(row.depth_value)}")
    return "\n".join(lines) + "\n"


def _report_verdict(report):
    if report is None:
        return None
    return {"status": report.status, "n0": report.n0, "period": report.period,
            "window": report.window}


def report_json(sc, outcome):
    D = sc.domain
    rows = []
    for row in outcome.result.rows:
        rows.append({
            "n": row.n,
            "invariant_factors": (["0"] * row.value.rank
                                  + [D.elem_str(d) for d in row.value.factors]),
            "ass": row.ass_set.to_json(),
            "depth": _depth_str(row.depth_value),
        })
    doc = {
        "name": sc.name,
        "backend": D.descriptor(),
        "horizon": outcome.horizon,
        "window": outcome.window,
        "rows": rows,
        "ass_verdict": _report_verdict(outcome.result.ass_report),
        "depth_verdict": _report_verdict(outcome.result.depth_report),
        "artin_rees_d": outcome.artin_d,
        "annihilator_checks": outcome.result.ann_checks,
        "expect_ok": outcome.expect_ok if sc.expect is not None else None,
        "expect_failures": list(outcome.expect_failures),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
