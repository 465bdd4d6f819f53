"""The CSV and JSON reports against their one-``json.dumps`` references.

``report_json`` renders each row's object with json's C string encoder and
splices the rows into the rest of the document, which ``json.dumps`` still
lays out; ``report_csv`` and ``report_json`` read one rendering of each row's
cells, shared by rows the scan reused.  Both must give, byte for byte, what
``tests/oracles.py`` renders afresh for every row, on the packaged scenarios
and on made-up outcomes whose strings need JSON escapes.
"""

import json
from pathlib import Path
from typing import NamedTuple

from hypothesis import example, given, settings, strategies as st

import stab
from stab.invariants import DEPTH_INF
from stab.scan import ScanResult, ScanRow, StabilizationReport
from stab.scenario import (RunOutcome, Scenario, _report_cells, parse_scenario,
                           report_csv, report_json, run_scenario)
from oracles import report_csv_reference, report_json_reference

SCENARIOS = sorted((Path(stab.__file__).resolve().parent / "scenarios").glob("*.json"))


def _parsed(path):
    return parse_scenario(json.loads(path.read_text()))


def test_packaged_scenarios_cover_the_three_rings():
    kinds = {json.dumps(_parsed(p).domain.descriptor(), sort_keys=True) for p in SCENARIOS}
    assert len(kinds) == 3


@given(st.sampled_from(SCENARIOS), st.integers(2, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_packaged_reports_match_the_references(path, horizon, data):
    sc = _parsed(path)
    start = sc.family.scan_start
    horizon = max(horizon, start + 1)
    window = data.draw(st.integers(2, horizon - start + 1))
    out = run_scenario(sc, horizon, window)
    assert report_csv(sc, out) == report_csv_reference(sc, out)
    assert report_json(sc, out) == report_json_reference(sc, out)


def test_reused_rows_share_their_cells():
    sc = _parsed(next(p for p in SCENARIOS if p.stem == "brodmann_int_layers"))
    out = run_scenario(sc, 12, 4)
    rows = out.result.rows
    reused = [i for i in range(1, len(rows)) if rows[i].value is rows[i - 1].value]
    assert len(reused) == len(rows) - 2
    assert all(out.cells[i] is out.cells[i - 1] for i in reused)


# -- made-up outcomes ----------------------------------------------------------
# A stand-in backend whose elements are their own strings, and primes whose
# repr is any string, so that every cell can need a JSON escape.

class _Domain:
    def __init__(self, descriptor):
        self._descriptor = descriptor

    def descriptor(self):
        return self._descriptor

    def elem_str(self, a):
        return a


class _Value(NamedTuple):
    rank: int
    factors: tuple


class _Prime(str):
    def __repr__(self):
        return str(self)


TEXT = st.text(max_size=6)
NAMES = st.text(min_size=1, max_size=12).filter(
    lambda s: not any(c in s for c in "/\\\x00") and ".." not in s)
DEPTHS = st.sampled_from([None, DEPTH_INF, 0, 1])


@st.composite
def _values(draw):
    return _Value(draw(st.integers(0, 2)), tuple(draw(st.lists(TEXT, max_size=3))))


@st.composite
def _verdicts(draw):
    if draw(st.booleans()):
        return None
    n0, period = draw(st.none() | st.integers(0, 9)), draw(st.none() | st.integers(1, 4))
    return StabilizationReport((), draw(st.integers(2, 9)),
                               draw(st.sampled_from(["stable", "not-stable-within-horizon"])),
                               n0, period)


@st.composite
def made_up_outcomes(draw):
    """A scenario and an outcome whose rows may repeat the previous row's
    value and primes (the same objects, as a reused row does), with the same
    depth or another."""
    rows = []
    for n in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            last = rows[-1]
            depth = last.depth_value if draw(st.booleans()) else draw(DEPTHS)
            rows.append(ScanRow(n, last.value, last.ass_set, depth))
        else:
            primes = tuple(map(_Prime, draw(st.lists(TEXT, max_size=3))))
            rows.append(ScanRow(n, draw(_values()), primes, draw(DEPTHS)))
    domain = _Domain(draw(st.dictionaries(TEXT, TEXT | st.integers(), max_size=2)))
    expect = draw(st.none() | st.just({}))
    sc = Scenario(draw(NAMES), domain, None, None, None, 9, 2, None, expect)
    result = ScanResult(tuple(rows), draw(_verdicts()), draw(_verdicts()))
    failures = tuple(draw(st.lists(TEXT, max_size=2)))
    outcome = RunOutcome(result, draw(st.none() | st.integers(0, 9)), not failures, failures,
                         draw(st.integers(0, 99)), draw(st.integers(2, 9)),
                         _report_cells(domain, result.rows))
    return sc, outcome


def _case(name, rows, domain=_Domain({}), expect=None, failures=()):
    result = ScanResult(tuple(rows), None, None)
    return (Scenario(name, domain, None, None, None, 9, 2, None, expect),
            RunOutcome(result, None, not failures, tuple(failures), 9, 2,
                       _report_cells(domain, result.rows)))


_ZERO = _Value(0, ())


@given(made_up_outcomes())
# A zero value with no primes, then a row that shares them at another depth;
# a name with a quote, a control character and a non-ASCII one.
@example(_case('q"\x01\u00e9', [ScanRow(1, _ZERO, (), 0), ScanRow(2, _ZERO, (), DEPTH_INF)]))
@settings(max_examples=300, deadline=None)
def test_made_up_reports_match_the_references(case):
    sc, outcome = case
    assert report_csv(sc, outcome) == report_csv_reference(sc, outcome)
    assert report_json(sc, outcome) == report_json_reference(sc, outcome)


def test_made_up_rows_with_escapes():
    primes = (_Prime('"a"'), _Prime("\u00e9\n"))
    sc, outcome = _case("n", [ScanRow(1, _Value(1, ('"x"', "\t")), primes, None),
                              ScanRow(2, _ZERO, (), 1)],
                        _Domain({"kind": "\u00e9"}), {}, ["\u00e9"])
    text = report_json(sc, outcome)
    assert text == report_json_reference(sc, outcome)
    assert text.isascii() and '"\\"x\\""' in text and '"\\u00e9\\n"' in text
    assert report_csv(sc, outcome) == report_csv_reference(sc, outcome)
