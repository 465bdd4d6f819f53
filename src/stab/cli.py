"""Command-line surface.

``stab run <file>`` executes one scenario and writes CSV + JSON reports under
``--out``; ``stab compute <sub> <json|->`` does a one-shot computation printed
as JSON; ``stab suite`` checks every packaged scenario, then runs them and a
seeded law check.  :func:`_load_json` reads every input document.

Exit codes: 0 success (and expectation match), 1 read, parse, validation or write error,
2 runtime domain violation, 3 verdict mismatch against an expectation block.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from importlib import resources
from pathlib import Path

from .domains import ZZ
from .modules import DomainViolation, HomSpace
from .invariants import ass, depth
from .functors import OscillatingFunctor, ExponentSet
from .laws import check_functor_laws
from .scenario import (ScenarioError, parse_scenario, run_scenario, scan_range,
                       report_csv, report_json, read_backend, build_functor,
                       _Env, _mat, _require, _depth_str)


def _load_json(data, name):
    """``data``, bytes, read as strict UTF-8 JSON; any failure is an error at ``name``."""
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{name}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(name, exc) from exc
    except RecursionError as exc:
        raise ScenarioError(name, "nested too deeply to parse") from exc
    except ValueError as exc:  # the interpreter's limit on integer-string conversion
        raise ScenarioError(name, f"integer literal longer than "
                                  f"{sys.get_int_max_str_digits()} digits") from exc


def _read_scenario(data, name, args):
    doc = _load_json(data, name)
    try:
        return scan_range(parse_scenario(doc), args.horizon, args.window)
    except ScenarioError as exc:
        raise ScenarioError(name, exc) from exc


def _cmd_run(args):
    path = Path(args.file)
    # Read and checked before --out is made, so that a bad file writes nothing.
    sc = _read_scenario(path.read_bytes(), str(path), args)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    outcome = run_scenario(sc)
    _write_reports(outdir, sc, outcome)
    print(_summary_line(sc, outcome))
    for failure in outcome.expect_failures:
        print(f"  mismatch: {failure}", file=sys.stderr)
    return 0 if outcome.expect_ok else 3


def _write_reports(outdir, sc, outcome):
    (outdir / f"{sc.name}.csv").write_text(report_csv(sc, outcome))
    (outdir / f"{sc.name}.json").write_text(report_json(sc, outcome))


def _summary_line(sc, outcome):
    rep = outcome.result.ass_report
    parts = [f"{sc.name}: ass={rep.status}"]
    if rep.n0 is not None:
        parts.append(f"n0={rep.n0}")
    dep = outcome.result.depth_report
    if dep is not None:
        parts.append(f"depth={dep.status}")
        if dep.n0 is not None:
            parts.append(f"depth_n0={dep.n0}")
    if outcome.artin_d is not None:
        parts.append(f"artin_rees_d={outcome.artin_d}")
    if sc.expect is not None:
        parts.append("expect=ok" if outcome.expect_ok else "expect=FAIL")
    return " ".join(parts)


def _cmd_compute(args):
    data = sys.stdin.buffer.read() if args.json == "-" else os.fsencode(args.json)
    doc = _load_json(data, "<args>")
    print(json.dumps(_compute(args.sub, read_backend(doc), doc), indent=2, sort_keys=True))
    return 0


def _compute(sub, domain, doc):
    env = _Env(domain, doc)

    def arg(key, kind):
        return env.ref(doc, key, "$", kind)

    def mat_json(m):
        return [[domain.elem_to_json(a) for a in row] for row in m.data]

    if sub == "snf":
        d, u, v = _mat(domain, _require(doc, "matrix", "$"), "matrix").snf()
        return {"d": mat_json(d), "u": mat_json(u), "v": mat_json(v),
                "diagonal": [domain.elem_to_json(a) for a in d.diagonal()
                             if not domain.is_zero(a)]}
    if sub == "hnf":
        h, u = _mat(domain, _require(doc, "matrix", "$"), "matrix").hnf()
        return {"h": mat_json(h), "u": mat_json(u)}
    if sub == "ass":
        return {"ass": ass(arg("module", "modules")).to_json()}
    if sub == "depth":
        module = arg("module", "modules")
        return {"depth": _depth_str(depth(arg("ideal", "ideals"), module))}
    if sub == "hom":
        source, target = arg("source", "modules"), arg("target", "modules")
        return {"module": HomSpace(source, target).module.to_json()}
    if sub == "eval":
        functor = build_functor(env, _require(doc, "functor", "$"))
        return {"value": functor(arg("argument", "modules")).to_json()}
    raise ScenarioError("sub", f"unknown compute subcommand {sub!r}")


def _iter_packaged_scenarios():
    base = resources.files("stab").joinpath("scenarios")
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            yield entry.name, entry.read_bytes()


def _cmd_suite(args):
    # Every file is read and checked, overrides included, before any scan or write.
    scenarios = [(name, _read_scenario(data, name, args))
                 for name, data in _iter_packaged_scenarios()]
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    failures = 0
    count = 0
    for name, sc in scenarios:
        try:
            outcome = run_scenario(sc)
        except DomainViolation as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        count += 1
        status = "ok  " if outcome.expect_ok else "FAIL"
        print(f"{status} {_summary_line(sc, outcome)}")
        if not outcome.expect_ok:
            failures += 1
        if args.out:
            _write_reports(Path(args.out), sc, outcome)
    rng = random.Random(args.seed)
    osc = OscillatingFunctor(ZZ, {2: ExponentSet(progressions=[(2, 2)]),
                                  3: ExponentSet(members=[1])})
    law_failures = check_functor_laws(osc, ZZ, rng, trials=20, torsion_only=True)
    if law_failures:
        for f in law_failures[:5]:
            print(f"FAIL laws: {f}")
        failures += 1
    else:
        print(f"ok   functor-laws seed={args.seed} trials=20")
    print(f"{count} scenarios, {failures} failures")
    return 0 if failures == 0 else 3


def main(argv=None):
    parser = argparse.ArgumentParser(prog="stab",
                                     description="ideal-power stabilization scans "
                                                 "over Euclidean-domain modules")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file")
    p_run.set_defaults(func=_cmd_run)

    p_compute = sub.add_parser("compute", help="one-shot computation")
    p_compute.add_argument("sub", choices=["snf", "hnf", "ass", "depth", "hom", "eval"])
    p_compute.add_argument("json", help="JSON arguments, or '-' for stdin")
    p_compute.set_defaults(func=_cmd_compute)

    p_suite = sub.add_parser("suite", help="run the packaged scenario corpus")
    p_suite.set_defaults(func=_cmd_suite)
    for p in (p_run, p_suite):
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--out", default=None)
    p_suite.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    # The one mapping of errors to exit codes.
    try:
        return args.func(args)
    except ScenarioError as exc:
        message, code = f"error: {exc}", 1
    except OSError as exc:  # an unreadable file, or an --out or report that cannot be written
        where = "" if exc.filename is None else f"{exc.filename}: "
        message, code = f"error: {where}{exc.strerror or exc}", 1
    except DomainViolation as exc:
        message, code = f"domain violation: {exc}", 2
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
