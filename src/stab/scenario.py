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
from json.encoder import encode_basestring_ascii as _quote
from contextlib import contextmanager
from typing import NamedTuple, Optional

from .domains import domain_from_descriptor, int_in_range
from .matrices import Mat
from .modules import FpModule, Morphism, Ideal
from .invariants import CmcSet, DEPTH_INF
from .functors import (IdentityFunctor, HomFrom, CoherentFunctor, ComplexHomology,
                       GammaFunctor, ModGamma, TauFunctor, ModTau,
                       MiddleFiniteFunctor, EndSummand,
                       OscillatingFunctor, ExponentSet, ext_functor, tor_functor)
from .scan import (QuotientPowers, Layers, GradedLayers, SubquotientFamily,
                   KwHomology, scan_rows, scan_range_fault, artin_rees_probe)


class ScenarioError(ValueError):
    """A validation failure, anchored at a JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


# What a library constructor raises for an input it rejects.
_INPUT_ERRORS = (ValueError, TypeError)


@contextmanager
def _at(path):
    """Anchor a library input error raised in the block at ``path``; an inner
    :class:`ScenarioError` already carries its own path and passes through."""
    try:
        yield
    except ScenarioError:
        raise
    except _INPUT_ERRORS as exc:
        raise ScenarioError(path, str(exc)) from exc


def _join(path, key):
    return key if path == "$" else f"{path}.{key}"


def _require(doc, key, path, kind=None):
    if not isinstance(doc, dict):
        raise ScenarioError(path, "expected an object")
    if key not in doc:
        raise ScenarioError(path, f"missing required field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(_join(path, key), f"expected {kind.__name__}")
    return value


def _int(value, path, least=None):
    with _at(path):
        return int_in_range(value, least)


def _elem(domain, value, path):
    # Runs once per matrix entry, so it converts errors inline rather than via _at.
    try:
        return domain.elem_from_json(value)
    except _INPUT_ERRORS as exc:
        raise ScenarioError(path, str(exc)) from exc


def _mat(domain, rows, path, cols=0):
    """A nested row-major array; ``cols`` is the width of one with no rows."""
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ScenarioError(path, "matrix must be a nested array, row-major")
    data = [[_elem(domain, a, f"{path}[{i}][{j}]") for j, a in enumerate(row)]
            for i, row in enumerate(rows)]
    with _at(path):
        return Mat(domain, data, len(data), len(data[0]) if data else cols)


def read_backend(doc):
    """The backend a scenario or ``compute`` document names; integers by default."""
    if not isinstance(doc, dict):
        raise ScenarioError("$", "expected a JSON object")
    with _at("backend"):
        return domain_from_descriptor(doc.get("backend", {"kind": "integers"}))


class Scenario(NamedTuple):
    name: str
    domain: object
    family: object
    functor: object
    depth_ideal: Optional[Ideal]
    horizon: int
    window: int
    artin_rees: Optional[dict]
    expect: Optional[dict]


class _Env:
    """The named definitions of one document, and the one resolver of
    references to them."""

    def __init__(self, domain, doc):
        self.domain = domain
        self.named = {}
        # In this order, so that morphisms can name the modules defined above.
        for kind in ("modules", "ideals", "submodules", "morphisms"):
            self.named[kind] = {}
            section = doc.get(kind, {})
            if not isinstance(section, dict):
                raise ScenarioError(kind, "expected an object of named definitions")
            for name, value in section.items():
                self.named[kind][name] = self._build(kind, value, f"{kind}.{name}")

    def ref(self, doc, key, path, kind, rows=None):
        """``doc[key]`` as a ``kind`` definition: a defined name, or an inline
        definition (for ``ideals``, an element).  Submodule generators must
        have ``rows`` rows when it is given."""
        value = _require(doc, key, path)
        path = _join(path, key)
        named = self.named[kind]
        if isinstance(value, str) and (value in named or kind != "ideals"):
            if value not in named:
                raise ScenarioError(path, f"unknown {kind[:-1]} {value!r}")
            found = named[value]
        else:
            found = self._build(kind, value, path)
        if rows is not None and found.rows != rows:
            raise ScenarioError(path, "generator rows do not match the ambient rank")
        return found

    def _build(self, kind, value, path):
        D = self.domain
        with _at(path):
            if kind == "modules":
                return FpModule.from_json(D, value)
            if kind == "ideals":
                return Ideal(D, _elem(D, value, path))
            if kind == "submodules":
                return _mat(D, value, path)
            source = self.ref(value, "source", path, "modules")
            target = self.ref(value, "target", path, "modules")
            return Morphism(source, target, _mat(D, _require(value, "matrix", path),
                                                 f"{path}.matrix", source.ambient))


def _cmc_set(domain, doc, path):
    for key, make in (("elements", CmcSet.explicit), ("closure", CmcSet.closure)):
        if isinstance(doc, dict) and key in doc:
            elems = [_elem(domain, e, f"{path}.{key}[{i}]")
                     for i, e in enumerate(_require(doc, key, path, list))]
            with _at(path):
                return make(domain, elems)
    raise ScenarioError(path, "set must be an object with 'elements' or 'closure'")


def _exponent_set(doc, path):
    if not isinstance(doc, dict):
        raise ScenarioError(path, "exponent set must be an object")
    for key in doc:
        if key not in ("members", "progressions", "parity"):
            raise ScenarioError(path, f"unknown key {key!r}")
    if "parity" in doc:
        if "members" in doc or "progressions" in doc:
            raise ScenarioError(path, "parity cannot be combined with members or progressions")
        if doc["parity"] not in ("even", "odd"):
            raise ScenarioError(path, "parity must be 'even' or 'odd'")
        return ExponentSet(progressions=[(2 if doc["parity"] == "even" else 1, 2)])
    with _at(path):
        return ExponentSet(doc.get("members", ()), doc.get("progressions", ()))


# Functor kinds built from one referenced definition: key, kind, constructor.
_ONE_REF_FUNCTORS = {
    "hom_from": ("module", "modules", HomFrom),
    "ext1": ("module", "modules", lambda m: ext_functor(m, 1)),
    "tor1": ("module", "modules", lambda m: tor_functor(m, 1)),
    "coherent": ("morphism", "morphisms", CoherentFunctor),
    "gamma": ("ideal", "ideals", GammaFunctor),
    "mod_gamma": ("ideal", "ideals", ModGamma),
}


def build_functor(env, doc, path="functor"):
    kind = _require(doc, "kind", path, str)
    with _at(path):
        if kind == "identity":
            return IdentityFunctor()
        if kind in _ONE_REF_FUNCTORS:
            key, ref_kind, make = _ONE_REF_FUNCTORS[kind]
            return make(env.ref(doc, key, path, ref_kind))
        if kind in ("tau", "mod_tau"):
            cmc = _cmc_set(env.domain, _require(doc, "set", path), f"{path}.set")
            return TauFunctor(cmc) if kind == "tau" else ModTau(cmc)
        if kind == "complex":
            return ComplexHomology(env.ref(doc, "d2", path, "morphisms"),
                                   env.ref(doc, "d1", path, "morphisms"),
                                   _int(doc.get("index", 1), f"{path}.index"))
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
        # A summand is a module reference, or an object naming one and what to invert.
        if not (isinstance(item, dict) and "module" in item):
            item = {"module": item}
        module = env.ref(item, "module", f"{path}[{i}]", "modules")
        invert = item.get("invert")
        if invert is not None:
            invert = _elem(env.domain, invert, f"{path}[{i}].invert")
        out.append(EndSummand(module, invert))
    return out


def _middle_finite(env, doc, path):
    a_ends = _end_summands(env, doc.get("a", []), f"{path}.a")
    b = env.ref(doc, "b", path, "modules")
    c_ends = _end_summands(env, doc.get("c", []), f"{path}.c")
    d_a, d_b = (_mat(env.domain, doc[key], f"{path}.{key}") if doc.get(key) else None
                for key in ("d_a", "d_b"))
    return MiddleFiniteFunctor(a_ends, b, c_ends, d_a, d_b)


def _oscillating(env, doc, path):
    if "rules" in doc:
        rules = [(f"{path}.rules[{i}]", rule)
                 for i, rule in enumerate(_require(doc, "rules", path, list))]
    else:
        rules = [(path, doc)]
    D = env.domain
    by_prime, first_at = {}, {}
    for at, rule in rules:
        p = _elem(D, _require(rule, "prime", at), f"{at}.prime")
        # Associate primes name one rule; a repeat would silently replace it.
        first = first_at.setdefault(D.canon(p)[0], at)
        if first != at:
            raise ScenarioError(f"{at}.prime", f"repeats the prime of {first}")
        by_prime[p] = _exponent_set(_require(rule, "set", at), f"{at}.set")
    return OscillatingFunctor(D, by_prime)


def build_family(env, doc, scan, path="family"):
    """The family of a document.  ``scan`` is the document's ``(horizon,
    window)``; a shifted homology family is checked against it before its
    constructor raises the ideal to the shift offset."""
    kind = _require(doc, "kind", path, str)
    ideal = env.ref(doc, "ideal", path, "ideals")

    def sub(key, rows, where=doc, at=path):
        return env.ref(where, key, at, "submodules", rows)

    with _at(path):
        if kind in ("quotient_powers", "layers", "graded_layers", "subquotient"):
            module = env.ref(doc, "module", path, "modules")
            if kind == "graded_layers":
                return GradedLayers(module, sub("submodule", module.ambient), ideal)
            if kind == "subquotient":
                u, v, w = (sub(key, module.ambient) for key in ("u", "v", "w"))
                return SubquotientFamily(module, u, v, w, ideal)
            return (QuotientPowers if kind == "quotient_powers" else Layers)(module, ideal)
        if kind == "kw_homology":
            alpha = env.ref(doc, "alpha", path, "morphisms")
            beta = env.ref(doc, "beta", path, "morphisms")
            l_sub = sub("l_sub", alpha.source.ambient)
            m_sub = sub("m_sub", alpha.target.ambient)
            n_sub = sub("n_sub", beta.target.ambient)
            shift = None
            if "shift" in doc:
                spath = f"{path}.shift"
                shift = (sub("l1", alpha.source.ambient, doc["shift"], spath),
                         sub("l2", alpha.source.ambient, doc["shift"], spath),
                         _int(_require(doc["shift"], "c", spath), f"{spath}.c", least=0))
                _check_scan_range(max(1, shift[2]), *scan)
            return KwHomology(alpha, beta, l_sub, m_sub, n_sub, ideal, shift)
    raise ScenarioError(path, f"unknown family kind {kind!r}")


def parse_scenario(doc):
    """Validate a scenario document and resolve every reference."""
    domain = read_backend(doc)
    env = _Env(domain, doc)
    horizon = _int(doc.get("horizon", 50), "horizon")
    window = _int(doc.get("window", 10), "window")
    family = build_family(env, _require(doc, "family", "$", dict), (horizon, window))
    functor = build_functor(env, doc.get("functor", {"kind": "identity"}))
    depth_ideal = env.ref(doc, "depth_ideal", "$", "ideals") if "depth_ideal" in doc else None
    artin = None
    if "artin_rees" in doc:
        adoc = doc["artin_rees"]
        beta = env.ref(adoc, "beta", "artin_rees", "morphisms")
        artin = {"beta": beta,
                 "n_prime": env.ref(adoc, "n_prime", "artin_rees", "submodules",
                                    beta.target.ambient),
                 "ideal": (env.ref(adoc, "ideal", "artin_rees", "ideals") if "ideal" in adoc
                           else family.ideal),
                 "horizon": _int(adoc.get("horizon", 10), "artin_rees.horizon", least=0)}
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
        depth_ideal=depth_ideal, horizon=horizon, window=window,
        artin_rees=artin, expect=expect,
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
    horizon: int
    window: int
    cells: tuple


def _depth_str(v):
    if v is None:
        return ""
    if v == DEPTH_INF:
        return "inf"
    return str(int(v))


def _check_scan_range(start, horizon, window):
    fault = scan_range_fault(start, horizon, window)
    if fault:
        raise ScenarioError(*fault)


def scan_range(sc, horizon=None, window=None):
    """``(horizon, window)`` with any overrides applied, checked by the one
    scan-range rule for file values and command-line values alike."""
    horizon = sc.horizon if horizon is None else horizon
    window = sc.window if window is None else window
    _check_scan_range(sc.family.scan_start, horizon, window)
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
    return RunOutcome(result, artin_d, not failures, tuple(failures), horizon, window,
                      _report_cells(sc.domain, result.rows))


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


def _report_cells(D, rows):
    """Each row's invariant factors (a ``"0"`` per free summand), ``Ass``
    strings and depth, rendered once for both reports; a row whose value,
    primes and depth are the previous row's, as a reused row's are, shares
    that row's cells."""
    cells = []
    for i, row in enumerate(rows):
        cells.append(cells[-1] if i and row[1:] == rows[i - 1][1:] else (
            ("0",) * row.value.rank + tuple(map(D.elem_str, row.value.factors)),
            tuple(map(repr, row.ass_set)), _depth_str(row.depth_value)))
    return tuple(cells)


def _rendered(outcome, render):
    """``(n, render(*cells))`` per row, rendering each run of shared cells once."""
    last = text = None
    for row, cells in zip(outcome.result.rows, outcome.cells):
        if cells is not last:
            last, text = cells, render(*cells)
        yield row.n, text


def report_csv(sc, outcome):
    tails = _rendered(outcome, lambda f, a, d: f"{';'.join(f)},{';'.join(a)},{d}")
    return "".join(["n,invariant_factors,ass,depth\n", *(f"{n},{t}\n" for n, t in tails)])


def _report_verdict(report):
    if report is None:
        return None
    return {"status": report.status, "n0": report.n0, "period": report.period,
            "window": report.window}


def _json_strs(strs):
    return "[\n        " + ",\n        ".join(map(_quote, strs)) + "\n      ]" if strs else "[]"


def _json_row_prefix(factors, ass, depth):
    # A row object as ``json.dumps`` lays it out, in sorted key order up to ``n``.
    return (f'    {{\n      "ass": {_json_strs(ass)},\n      "depth": {_quote(depth)},\n'
            f'      "invariant_factors": {_json_strs(factors)},\n      "n": ')


def report_json(sc, outcome):
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.  The rows,
    rendered with json's C string encoder, replace a ``"rows": []`` that only
    the key can match, as a quote inside a JSON string is escaped."""
    rows = [f"{prefix}{n}\n    }}" for n, prefix in _rendered(outcome, _json_row_prefix)]
    doc = {
        "name": sc.name,
        "backend": sc.domain.descriptor(),
        "horizon": outcome.horizon,
        "window": outcome.window,
        "rows": [],
        "ass_verdict": _report_verdict(outcome.result.ass_report),
        "depth_verdict": _report_verdict(outcome.result.depth_report),
        "artin_rees_d": outcome.artin_d,
        "annihilator_checks": len(outcome.result.rows),
        "expect_ok": outcome.expect_ok if sc.expect is not None else None,
        "expect_failures": list(outcome.expect_failures),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if rows:
        text = text.replace('"rows": []', '"rows": [\n' + ",\n".join(rows) + "\n  ]", 1)
    return text + "\n"
