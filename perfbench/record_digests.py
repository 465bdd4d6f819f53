"""Record the report digests that the suite workloads check against.

Run from the repository root at the commit whose reports are the reference:

    python3 perfbench/record_digests.py

It runs every packaged scenario through ``stab run`` at the benchmark horizon
and writes ``perfbench/expected_reports.json``.  The reports must stay
byte-identical, so this file changes only when a change to the reports is
intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main():
    import stab.cli

    suites = {"suite-int": {}, "suite-poly": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        for path in sorted((ROOT / "src" / "stab" / "scenarios").glob("*.json")):
            name = json.loads(path.read_text())["name"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = stab.cli.main(["run", str(path), "--horizon",
                                      str(workloads.HORIZON), "--out", out])
            if code != 0:
                raise SystemExit(f"{path.name}: exit {code}")
            record = workloads.report_record(
                (Path(out) / f"{name}.csv").read_bytes(),
                (Path(out) / f"{name}.json").read_bytes(), buf.getvalue())
            suite = "suite-poly" if "_poly" in path.name else "suite-int"
            suites[suite][path.name] = {"name": name, **record}
    doc = {"horizon": workloads.HORIZON, "suites": suites}
    workloads.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
