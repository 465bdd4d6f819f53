"""One workload run in a fresh process; started by ``run.py``.

The process imports ``stab`` (set-up), then calls ``stab.cli.main`` once per
operation, times each call, checks its output outside the timed span, and
writes a JSON result file for the parent.  A *pass* is one run over the
workload's inputs: every scenario of a suite once, in an order drawn from the
seed, or one batch of distinct ``compute`` requests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import probe
import workloads

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "stab" / "scenarios"


class Run:
    """Counts operations and failures across the passes of one process."""

    def __init__(self, workload, seed, outdir):
        import stab.cli  # noqa: F401  (set-up cost is part of the measurement)

        self.outdir = outdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.latencies = {}
        self.batches = 0
        self.seen = set()
        if workload == "compute-distinct":
            self.suite = None
        else:
            self.suite = workloads.load_expected()["suites"][workload]
            missing = [f for f in self.suite if not (SCENARIOS / f).is_file()]
            if missing:
                raise FileNotFoundError(f"packaged scenarios missing: {missing}")

    def _call(self, argv):
        import stab.cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = stab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # counted as a failed operation, run continues
            code = "raised"
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue(), (start, time.perf_counter())

    def _record(self, ok, label, err):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {err.strip()[-400:]}")

    def _request(self, sub, text, expected):
        code, out, err, span = self._call(["compute", sub, text])
        ok = code == 0 and workloads.check_compute(sub, expected, out)
        self._record(ok, f"compute {sub} {text[:200]}", err or out)
        return "request", span, int(ok)

    def _scenario(self, fname):
        want = self.suite[fname]
        code, out, err, span = self._call(
            ["run", str(SCENARIOS / fname), "--horizon", str(workloads.HORIZON),
             "--out", str(self.outdir)])
        ok = code == 0 and self._report_ok(want, out)
        why = f"exit {code}" if code != 0 else "report differs from expected_reports.json"
        self._record(ok, f"run {fname}: {why}", err)
        return fname, span, want["rows"] if ok else 0

    def one_pass(self, sampler):
        """Run one pass under ``sampler``; return its totals.

        ``seconds`` is the pass's time in ``stab`` at reference speed and
        ``raw_seconds`` the same on the wall clock.  Each call contributes
        its scaled time to ``latencies`` under its sample key.
        """
        if self.suite is not None:
            order = workloads.suite_order(self.suite, self.rng)
            calls = [self._scenario(fname) for fname in order]
        else:
            batch = workloads.compute_batch(self.seed, self.batches, self.seen)
            self.batches += 1
            calls = [self._request(*request) for request in batch]
        totals = {"raw_seconds": 0.0, "seconds": 0.0, "rows": 0, "requests": 0}
        for key, (start, end), rows in calls:
            scaled = sampler.scaled(start, end)
            totals["raw_seconds"] += end - start - sampler.interrupted(start, end)
            totals["seconds"] += scaled
            totals["rows"] += rows
            totals["requests"] += rows > 0
            self.latencies.setdefault(key, []).append(scaled)
        return totals

    def _report_ok(self, want, summary):
        paths = [self.outdir / f"{want['name']}.{ext}" for ext in ("csv", "json")]
        try:
            got = workloads.report_record(paths[0].read_bytes(), paths[1].read_bytes(),
                                          summary)
        except OSError:
            return False
        finally:
            for path in paths:
                path.unlink(missing_ok=True)
        return got == {k: want[k] for k in got}


def timed_passes(run, seconds):
    """Whole passes until ``seconds`` of wall time have gone by."""
    passes = []
    start = time.perf_counter()
    with probe.Sampler() as sampler:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run.one_pass(sampler))
    return passes


def traced_passes(run, names):
    """Untraced passes, then as many tracing the layers, then the arithmetic.

    A suite pass is long enough alone; a compute batch is not, so five are run.
    """
    from tracer import Tracer, ARITH_OPS

    count = 1 if run.suite is not None else 5

    def passes(tracer=None, arith=False):
        on_sample = None
        if tracer is not None:
            tracer.install(arith)
            on_sample = tracer.exclude
        try:
            with probe.Sampler(on_sample) as sampler:
                totals = [run.one_pass(sampler) for _ in range(count)]
        finally:
            if tracer is not None:
                tracer.uninstall()
        scaled = sum(t["seconds"] for t in totals)
        return scaled, scaled / sum(t["raw_seconds"] for t in totals)

    base, _ = passes()
    layers, arith = Tracer(), Tracer()
    traced, layers_speed = passes(layers)
    _, arith_speed = passes(arith, arith=True)
    arith_names = {n for n in names for op in ARITH_OPS if n.startswith(f"domains.{op}.")}
    metrics = layers.metrics([n for n in names if n not in arith_names], layers_speed)
    metrics.update(arith.metrics(sorted(arith_names), arith_speed))
    metrics["trace.overhead_frac"] = traced / base - 1
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for stab reports")
    parser.add_argument("--result", required=True, help="file for this run's result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        with probe.Sampler() as sampler:
            Run(args.workload, args.seed, Path(args.out))
            ready = time.perf_counter()
        result = {"ready_at": ready, "interrupted": sampler.interrupted(0, ready),
                  "speed": sampler.speed(0, ready)}
    else:
        run = Run(args.workload, args.seed, Path(args.out))
        result = {}
        if args.trace:
            names = [m["name"] for m in
                     json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
            result["trace"] = traced_passes(run, names)
        else:
            result["passes"] = timed_passes(run, args.seconds)
            result["latencies"] = run.latencies
        result.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
