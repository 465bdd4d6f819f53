"""Mutated scenario files and ``stab compute`` arguments never crash ``stab``.

Each example takes a packaged scenario, or a valid ``compute`` argument, and
applies one to three mutations: it deletes a key or an array entry, retypes a
value (string, float, bool, null, nested arrays), wraps a value in an array,
or puts in a negative or 2^70-sized integer.  The result goes in-process
through ``stab.cli.main``.  The exit code must be 0, 1, 2 or 3, no exception
may escape ``main``, and nothing may be written outside ``--out``.

Scans use ``--horizon`` and ``--window`` overrides, and the Artin-Rees probe
horizon is kept at 20 or less, so that no example scans more than a few rows.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from stab import cli

SCENARIOS = sorted(cli._iter_packaged_scenarios())

REPLACEMENTS = st.sampled_from([
    "x", "", "1", 1.5, 0.0, True, False, None, [], [[]], [[["1"]]], {},
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


def _paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
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
            # A copy, since later mutations may edit the inserted array in place.
            parent[key] = json.loads(json.dumps(data.draw(REPLACEMENTS, label="value")))
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


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_mutated_scenarios_exit_cleanly(data):
    _, text = data.draw(st.sampled_from(SCENARIOS), label="scenario")
    doc = _mutate(json.loads(text), data)
    artin = doc.get("artin_rees")
    horizon = artin.get("horizon") if isinstance(artin, dict) else None
    if isinstance(horizon, int) and horizon > 20:
        artin["horizon"] = 20
    argv = ["--horizon", str(data.draw(st.integers(8, 14), label="horizon")),
            "--window", str(data.draw(st.integers(2, 4), label="window"))]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "s.json").write_text(json.dumps(doc))
        cwd = os.getcwd()
        os.chdir(root)
        try:
            _main(["run", "s.json", *argv, "--out", "reports"])
        finally:
            os.chdir(cwd)
        written = {p.relative_to(root).as_posix() for p in root.rglob("*")}
        assert {p for p in written if not p.startswith("reports/")} <= {"s.json", "reports"}


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
