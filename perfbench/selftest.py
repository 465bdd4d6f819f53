"""Self-test of the benchmark's output checks.  Run from the repository root:

    python3 perfbench/selftest.py

It runs one scenario of ``suite-int`` and one ``compute-distinct`` batch
through the same code as a benchmark run, first as they are and then with
``stab`` made to corrupt one report byte or give one wrong answer.  The clean
runs must count no failure and the corrupted ones exactly one, so that
``failed_frac`` rises above 0.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stab.cli  # noqa: E402

import probe  # noqa: E402
from worker import Run  # noqa: E402


def failures(workload, out, scenarios=1):
    run = Run(workload, 0, out)
    if run.suite is not None:
        run.suite = dict(sorted(run.suite.items())[:scenarios])
    with probe.Sampler() as sampler:
        run.one_pass(sampler)
    return run.failed, run.attempted


def corrupt_one_report_byte():
    original = stab.cli.report_csv

    def report_csv(sc, outcome):
        text = original(sc, outcome)
        i = len(text) // 2
        return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    stab.cli.report_csv = report_csv
    return lambda: setattr(stab.cli, "report_csv", original)


def one_wrong_answer():
    original = stab.cli._compute
    state = {"left": 1}

    def compute(sub, domain, doc):
        out = original(sub, domain, doc)
        if state["left"]:
            state["left"] -= 1
            out = dict(out, **{k: "wrong" for k in out})
        return out
    stab.cli._compute = compute
    return lambda: setattr(stab.cli, "_compute", original)


def main():
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp)
        for workload, corrupt in (("suite-int", corrupt_one_report_byte),
                                  ("compute-distinct", one_wrong_answer)):
            failed, attempted = failures(workload, out)
            print(f"{workload} clean: {failed}/{attempted} failed")
            if failed != 0:
                problems.append(f"{workload}: clean run counted {failed} failures")
            restore = corrupt()
            try:
                failed, attempted = failures(workload, out)
            finally:
                restore()
            print(f"{workload} corrupted: {failed}/{attempted} failed, "
                  f"failed_frac={failed / attempted:.4f}")
            if failed != 1:
                problems.append(f"{workload}: corrupted run counted {failed} failures, not 1")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
