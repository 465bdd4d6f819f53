"""Every packaged scenario's reports stay byte-identical.

``tests/report_digests.json`` holds the SHA-256 of the CSV report, the JSON
report and the summary line that ``stab run`` writes for each packaged
scenario at the scenario file's own horizon.  A change that only makes the
library faster must leave all three unchanged; a scenario added without a
digest fails too.  When a change to the reports is intended, record the
fixture again from the repository root:

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import stab
import stab.cli

SCENARIOS = Path(stab.__file__).resolve().parent / "scenarios"
FIXTURE = Path(__file__).resolve().parent / "report_digests.json"


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


def test_packaged_reports_match_their_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = current_digests()
    assert sorted(actual) == sorted(expected), "packaged scenarios and digests differ"
    changed = [name for name in actual if actual[name] != expected[name]]
    assert not changed, f"reports changed: {changed}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
