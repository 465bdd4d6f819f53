"""Mutated scenario files and ``stab compute`` arguments never crash ``stab``.

Each example takes a packaged scenario, or a valid ``compute`` argument, and
applies one to three mutations: it deletes a key or an array entry, retypes a
value (string, float, bool, null, nested arrays, a lone surrogate), wraps a
value in an array, puts in a negative or 2^70-sized integer, or inserts a
top-level key of the document vocabulary (``out`` included).  A second test
works on the bytes: raw bytes, or a document's text truncated, broken as
UTF-8, with a value spliced in as raw JSON (deep nesting, a long digit run,
``NaN``/``Infinity``) or with a key repeated.  The result goes in-process
through ``stab.cli.main``, as a run file, a ``compute`` argument or
``compute``'s stdin.  The exit code must be 0, 1, 2 or 3, no exception may
escape ``main``, and nothing may be written outside ``--out``.

Scans use ``--horizon`` and ``--window`` overrides, and the Artin-Rees probe
horizon is kept at 20 or less, so that no example scans more than a few rows.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from stab import cli

SCENARIOS = sorted(cli._iter_packaged_scenarios())

REPLACEMENTS = st.sampled_from([
    "x", "", "1", "\ud800", 1.5, 0.0, True, False, None, [], [[]], [[["1"]]], {},
    0, -1, -(2**70), 2**70,
])

ARGUMENT = {"integers": {"rank": 0, "factors": ["12"]},
            "poly": {"rank": 0, "factors": [[0, 1, 1]]}}


def _eval_args(text):
    """A ``compute eval`` argument built from one packaged scenario's functor."""
    doc = json.loads(text)
    args = {k: doc[k] for k in ("backend", "modules", "ideals", "submodules",
                                "morphisms", "functor") if k in doc}
    args["argument"] = ARGUMENT[doc.get("backend", {"kind": "integers"})["kind"]]
    return args


COMPUTE = [
    ("snf", {"matrix": [[2, 4], [6, 8]]}),
    ("hnf", {"matrix": [["12", "6"], ["4", "0"]]}),
    ("ass", {"module": {"rank": 1, "factors": [12]}}),
    ("ass", {"backend": {"kind": "poly", "characteristic": 5},
             "module": {"relations": [[[1, 1], [2]], [[0], [0, 1]]]}}),
    ("depth", {"ideal": "2", "module": {"rank": 0, "factors": ["4", "6"]}}),
    ("hom", {"source": {"rank": 0, "factors": [6]},
             "target": {"relations": [[4, 2], [0, 6]], "ambient": 2}}),
] + [("eval", _eval_args(text)) for _, text in SCENARIOS]

# The top-level keys of every packaged scenario and compute argument, after
# ``out``, which a scenario may not have; first, so that it is drawn most.
VOCABULARY = ["out"] + sorted({key for _, text in SCENARIOS for key in json.loads(text)}
                              | {key for _, args in COMPUTE for key in args})

# Raw JSON spliced in for a value: nesting that parses and nesting that does
# not, digit runs past the interpreter's default 4300-digit conversion limit,
# and the non-standard literals that json reads as floats.
RAW_VALUES = st.sampled_from([
    "[" * 50 + "]" * 50, "[" * 100_000 + "]" * 100_000, '{"k": ' * 100_000,
    "7" * 4301, "-" + "7" * 100_000, "NaN", "Infinity", "-Infinity",
])
PLACEHOLDER = "\0spliced"


def _paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _copy(value):
    # A copy, since later mutations may edit an inserted array in place.
    return json.loads(json.dumps(value))


def _mutate(doc, data):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if data.draw(st.booleans(), label="insert"):
            doc[data.draw(st.sampled_from(VOCABULARY), label="key")] = \
                _copy(data.draw(REPLACEMENTS, label="value"))
            continue
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="at")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        how = data.draw(st.sampled_from(["delete", "replace", "wrap"]), label="how")
        if how == "delete":
            del parent[key]
        elif how == "replace":
            parent[key] = _copy(data.draw(REPLACEMENTS, label="value"))
        else:
            parent[key] = [parent[key]]
    return doc


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def _capped(doc):
    """``doc`` with its Artin-Rees probe horizon at 20 or less."""
    artin = doc.get("artin_rees")
    horizon = artin.get("horizon") if isinstance(artin, dict) else None
    if isinstance(horizon, int) and horizon > 20:
        artin["horizon"] = 20
    return doc


def _run_file(raw, argv):
    """``stab run`` on a file holding the bytes ``raw``; nothing may be written
    but the file and what lies under ``--out``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "s.json").write_bytes(raw)
        cwd = os.getcwd()
        os.chdir(root)
        try:
            _main(["run", "s.json", *argv, "--out", "reports"])
        finally:
            os.chdir(cwd)
        written = {p.relative_to(root).as_posix() for p in root.rglob("*")}
        assert {p for p in written if not p.startswith("reports/")} <= {"s.json", "reports"}


def _scan_range(data):
    return ["--horizon", str(data.draw(st.integers(8, 14), label="horizon")),
            "--window", str(data.draw(st.integers(2, 4), label="window"))]


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_mutated_scenarios_exit_cleanly(data):
    _, text = data.draw(st.sampled_from(SCENARIOS), label="scenario")
    doc = _capped(_mutate(json.loads(text), data))
    _run_file(json.dumps(doc).encode(), _scan_range(data))


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_mutated_compute_arguments_exit_cleanly(data):
    sub, args = data.draw(st.sampled_from(COMPUTE), label="request")
    doc = _mutate(json.loads(json.dumps(args)), data)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            _main(["compute", sub, json.dumps(doc)])
        finally:
            os.chdir(cwd)
        assert not any(Path(tmp).iterdir())


def _spliced(doc, data):
    """The JSON text of ``doc`` with one value replaced by raw JSON text, or
    with one key of an object repeated, the repeat last so that it wins."""
    paths = list(_paths(doc))[1:]
    path = data.draw(st.sampled_from(paths), label="at")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="repeat"):
        # No repeated value above 20, which could be a probe horizon.
        parent[PLACEHOLDER] = _copy(data.draw(REPLACEMENTS.filter(
            lambda v: not isinstance(v, int) or v <= 20), label="value"))
        raw = json.dumps(key)
    else:
        parent[key] = PLACEHOLDER
        raw = data.draw(RAW_VALUES, label="raw")
    return json.dumps(doc).replace(json.dumps(PLACEHOLDER), raw, 1)


def _broken(raw, data):
    """``raw`` truncated, or with bytes that are not UTF-8 put in, or as it is."""
    at = data.draw(st.integers(0, len(raw)), label="byte")
    how = data.draw(st.sampled_from(["truncate", "invalid-utf8", "none"]), label="bytes")
    if how == "truncate":
        return raw[:at]
    if how == "invalid-utf8":
        # A stray continuation byte, a cut sequence, an encoded surrogate, 0xff.
        bad = data.draw(st.sampled_from([b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"]),
                        label="bad")
        return raw[:at] + bad + raw[at:]
    return raw


def _document(data, doc):
    """Bytes drawn for one document: raw bytes, or a text mutation of ``doc``."""
    if data.draw(st.booleans(), label="raw bytes"):
        return data.draw(st.binary(max_size=64), label="bytes")
    return _broken(_spliced(doc, data).encode(), data)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_broken_scenario_bytes_exit_cleanly(data):
    _, text = data.draw(st.sampled_from(SCENARIOS), label="scenario")
    _run_file(_document(data, _capped(json.loads(text))), _scan_range(data))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_broken_compute_bytes_exit_cleanly(data):
    sub, args = data.draw(st.sampled_from(COMPUTE), label="request")
    raw = _document(data, _copy(args))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if data.draw(st.booleans(), label="stdin"):
                with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw))):
                    _main(["compute", sub, "-"])
            else:
                # An argument as the shell would pass these bytes.
                _main(["compute", sub, os.fsdecode(raw)])
        finally:
            os.chdir(cwd)
        assert not any(Path(tmp).iterdir())
