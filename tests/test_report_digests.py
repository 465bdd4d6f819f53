"""Every packaged scenario's reports and every pinned normal form stay byte-identical.

``tests/report_digests.json`` holds the SHA-256 of the CSV report, the JSON
report and the summary line that ``stab run`` writes for each packaged
scenario at the scenario file's own horizon.  A change that only makes the
library faster must leave all three unchanged; a scenario added without a
digest fails too.

``tests/compute_digests.json`` holds the SHA-256 of the ``stab compute hnf``
and ``stab compute snf`` answers, transforms included, for a seeded set of
matrices over ``Z``, ``GF(2)[x]`` and ``GF(5)[x]``: 0x0 and every shape
from 1x0 to 5x6 (JSON rows cannot give 0xn), with sparse, zero, unit and
dense entries, dense ones non-canonical (negative integers, non-monic
polynomials, coefficients out of range).  The forms themselves are
canonical but their transforms are not, so a changed pivot choice or order
of operations fails here while every identity the other tests check holds.

``tests/module_digests.json`` holds the SHA-256 of the exit code and stdout
of ``stab compute hom`` and ``stab compute eval`` for a seeded set of module
documents over the same three backends: each ``hom`` pairs two of them, and
each ``eval`` takes a packaged scenario's functor to one of them.  Modules
come as invariants or as relation matrices, so the module documents these
commands write are checked byte for byte whatever the argument's shape.

When a change to any of them is intended, record the fixtures again from the
repository root:

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import stab
import stab.cli
import stab.scenario

SCENARIOS = Path(stab.__file__).resolve().parent / "scenarios"
FIXTURE = Path(__file__).resolve().parent / "report_digests.json"
COMPUTE_FIXTURE = Path(__file__).resolve().parent / "compute_digests.json"
MODULE_FIXTURE = Path(__file__).resolve().parent / "module_digests.json"
BACKENDS = {"zz": {"kind": "integers"},
            "gf2": {"kind": "poly", "characteristic": 2},
            "gf5": {"kind": "poly", "characteristic": 5}}
STYLES = ("sparse", "zero", "unit", "dense")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _digests(path, out):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = stab.cli.main(["run", str(path), "--out", out])
    assert code == 0, f"{path.name}: exit {code}"
    name = json.loads(path.read_text())["name"]
    return {"csv": _sha256((Path(out) / f"{name}.csv").read_bytes()),
            "json": _sha256((Path(out) / f"{name}.json").read_bytes()),
            "summary": _sha256(buf.getvalue().encode())}


def current_digests():
    with tempfile.TemporaryDirectory() as out:
        return {path.name: _digests(path, out)
                for path in sorted(SCENARIOS.glob("*.json"))}


def _entry(rng, desc, style):
    """A JSON matrix entry; ``dense`` ones are often non-canonical."""
    if style == "zero" or (style == "sparse" and rng.random() < 0.7):
        return 0
    p = desc.get("characteristic")
    if style == "unit":
        return rng.choice((-1, 0, 1)) if p is None else rng.randrange(p)
    if p is None:
        return rng.randint(-30, 30)
    return [rng.randint(-3, 2 * p) for _ in range(rng.randint(1, 4))]


def compute_cases():
    """``(key, document)`` for every pinned ``compute`` matrix, three per shape."""
    rng = random.Random(1313)
    shapes = [(0, 0)] + [(r, c) for r in range(1, 6) for c in range(7)]
    for tag, desc in BACKENDS.items():
        for k in range(3 * len(shapes)):
            rows, cols = shapes[k // 3]
            style = STYLES[k % len(STYLES)]
            matrix = [[_entry(rng, desc, style) for _ in range(cols)] for _ in range(rows)]
            yield f"{tag}-{k:03d}", {"backend": desc, "matrix": matrix}


def current_compute_digests():
    out = {}
    for key, doc in compute_cases():
        domain = stab.scenario.read_backend(doc)
        out[key] = {sub: _sha256(json.dumps(stab.cli._compute(sub, domain, doc),
                                            indent=2, sort_keys=True).encode())
                    for sub in ("hnf", "snf")}
    return out


def _factor(rng, desc):
    """A nonzero, often non-canonical, invariant factor."""
    p = desc.get("characteristic")
    if p is None:
        return str(rng.choice((-1, 1, 2, 3, 4, -6, 8, 9, 12, 36)))
    low = [rng.randint(-3, 2 * p) for _ in range(rng.randint(0, 2))]
    return low + [rng.randrange(1, p) + p * rng.randint(0, 1)]


def _module_doc(rng, desc):
    """A module document, as invariants or as a relation matrix."""
    if rng.random() < 0.4:
        return {"rank": rng.randint(0, 2),
                "factors": [_factor(rng, desc) for _ in range(rng.randint(0, 3))]}
    rows, cols = rng.randint(1, 3), rng.randint(0, 3)
    style = rng.choice(("sparse", "dense"))
    return {"relations": [[_entry(rng, desc, style) for _ in range(cols)]
                          for _ in range(rows)], "ambient": rows}


def module_cases():
    """``(key, subcommand, document)`` for every pinned ``hom`` and ``eval``."""
    rng = random.Random(3434)
    for tag, desc in BACKENDS.items():
        for k in range(20):
            yield f"{tag}-hom-{k:02d}", "hom", {"backend": desc,
                                                "source": _module_doc(rng, desc),
                                                "target": _module_doc(rng, desc)}
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text())
        desc = doc.get("backend", {"kind": "integers"})
        args = {k: doc[k] for k in ("backend", "modules", "ideals", "submodules",
                                    "morphisms", "functor") if k in doc}
        for k in range(3):
            yield (f"{path.stem}-eval-{k}", "eval",
                   dict(args, argument=_module_doc(rng, desc)))


def current_module_digests():
    out = {}
    for key, sub, doc in module_cases():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = stab.cli.main(["compute", sub, json.dumps(doc)])
        out[key] = _sha256(f"{code}\n{buf.getvalue()}".encode())
    return out


def test_packaged_reports_match_their_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = current_digests()
    assert sorted(actual) == sorted(expected), "packaged scenarios and digests differ"
    changed = [name for name in actual if actual[name] != expected[name]]
    assert not changed, f"reports changed: {changed}"


def test_compute_normal_forms_match_their_digests():
    expected = json.loads(COMPUTE_FIXTURE.read_text())
    actual = current_compute_digests()
    assert sorted(actual) == sorted(expected), "pinned matrices and digests differ"
    changed = [key for key in actual if actual[key] != expected[key]]
    assert not changed, f"normal forms changed: {changed}"


def test_compute_module_answers_match_their_digests():
    expected = json.loads(MODULE_FIXTURE.read_text())
    actual = current_module_digests()
    assert sorted(actual) == sorted(expected), "pinned module documents and digests differ"
    changed = [key for key in actual if actual[key] != expected[key]]
    assert not changed, f"compute answers changed: {changed}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    COMPUTE_FIXTURE.write_text(
        json.dumps(current_compute_digests(), indent=1, sort_keys=True) + "\n")
    MODULE_FIXTURE.write_text(
        json.dumps(current_module_digests(), indent=1, sort_keys=True) + "\n")
