"""Command-line surface.

``stab run <file>`` executes one scenario and writes CSV + JSON reports;
``stab compute <sub> <json>`` does a one-shot computation printed as JSON;
``stab suite`` runs the packaged scenario corpus plus a seeded law check.

Exit codes: 0 success (and expectation match), 1 parse, validation or write error,
2 runtime domain violation, 3 verdict mismatch against an expectation block.
"""

from __future__ import annotations

import argparse
import json
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


def _fail_parse(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def _fail_domain(exc):
    print(f"domain violation: {exc}", file=sys.stderr)
    return 2


def _load_json(text, filename):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"{filename}:{exc.lineno}:{exc.colno}: {exc.msg}"


def _cmd_run(args):
    path = Path(args.file)
    try:
        text = path.read_text()
    except OSError as exc:
        return _fail_parse(f"{path}: {exc}")
    doc, err = _load_json(text, str(path))
    if err:
        return _fail_parse(err)
    try:
        sc = parse_scenario(doc)
        # Checked before --out is made, so that a bad override writes nothing.
        scan_range(sc, args.horizon, args.window)
        outdir = Path(args.out or doc.get("out", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        outcome = run_scenario(sc, args.horizon, args.window)
    except ScenarioError as exc:
        return _fail_parse(f"{path}: {exc}")
    except DomainViolation as exc:
        return _fail_domain(exc)
    _write_reports(outdir, sc, outcome)
    print(_summary_line(sc, outcome))
    if not outcome.expect_ok:
        for failure in outcome.expect_failures:
            print(f"  mismatch: {failure}", file=sys.stderr)
        return 3
    return 0


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
    doc, err = _load_json(args.json if args.json != "-" else sys.stdin.read(),
                          "<args>")
    if err:
        return _fail_parse(err)
    try:
        out = _compute(args.sub, read_backend(doc), doc)
    except ScenarioError as exc:
        return _fail_parse(str(exc))
    except DomainViolation as exc:
        return _fail_domain(exc)
    print(json.dumps(out, indent=2, sort_keys=True))
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
        return {"module": HomSpace(source, target).module.dec_module().to_json()}
    if sub == "eval":
        functor = build_functor(env, _require(doc, "functor", "$"))
        return {"value": functor(arg("argument", "modules")).dec_module().to_json()}
    raise ScenarioError("sub", f"unknown compute subcommand {sub!r}")


def _iter_packaged_scenarios():
    base = resources.files("stab").joinpath("scenarios")
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            yield entry.name, entry.read_text()


def _cmd_suite(args):
    parsed = []
    for name, text in _iter_packaged_scenarios():
        doc, err = _load_json(text, name)
        sc = None
        if not err:
            try:
                sc = parse_scenario(doc)
            except ScenarioError as exc:
                err = str(exc)
        parsed.append((name, sc, err))
    # Overrides are checked against every scenario before any scan or write.
    for name, sc, _ in parsed:
        if sc is not None:
            try:
                scan_range(sc, args.horizon, args.window)
            except ScenarioError as exc:
                return _fail_parse(f"{name}: {exc}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    failures = 0
    count = 0
    for name, sc, err in parsed:
        if err:
            print(f"FAIL {name}: {err}")
            failures += 1
            continue
        try:
            outcome = run_scenario(sc, args.horizon, args.window)
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
    try:
        return args.func(args)
    except OSError as exc:  # an --out or a report that cannot be written
        return _fail_parse(f"{exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
