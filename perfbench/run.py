"""The stab benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload suite-int --seed 1 --seconds 30 --trace 0

Each run starts fresh single-threaded child processes (``worker.py``) with the
checkout's ``src`` on their path.  ``--trace 0`` prints the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics from
an outside-in traced run instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric
definitions, workloads and the layer map are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite-int", "suite-poly", "compute-distinct")
# Set-up is timed this many times per run, each in a process of its own.
SETUP_SPAWNS = 9
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def child_env():
    """The inherited environment, made hermetic for ``stab``."""
    env = dict(os.environ)
    # An absolute path: the children never depend on their working directory.
    env["PYTHONPATH"] = str(ROOT / "src")
    # The thread pool selected by STAB_THREADS is not part of what is measured.
    env.pop("STAB_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, tmp, deadline, *extra):
    """Run one worker; return ``(spawn time, its result)``."""
    result = Path(tmp) / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(Path(tmp) / "out"),
           "--result", str(result), *extra]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=tmp, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return started, json.loads(result.read_text())


def percentile(values, q):
    """The ``q``-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, res):
    passes = res["passes"]
    samples = res["latencies"]
    # Every request is a sample; a scenario contributes its median call.
    lat_ms = [1000 * s for s in samples["request"]] if "request" in samples else \
        [1000 * statistics.median(v) for v in samples.values()]
    raw = {"raw_setup_s": statistics.median(s for s, _ in setups),
           "raw_wall_s": statistics.median(p["raw_seconds"] for p in passes)}
    setups = [s for _, s in setups]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["seconds"] for p in passes),
        "rows_per_s": statistics.median(p["rows"] / p["seconds"] for p in passes),
        "requests_per_s": statistics.median(p["requests"] / p["seconds"] for p in passes),
        "request_p50_ms": percentile(lat_ms, 50),
        "request_p95_ms": percentile(lat_ms, 95),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }, {"passes": len(passes), "latency_samples": len(lat_ms),
        "setup_samples": len(setups), **{k: f"{v:.4f}" for k, v in raw.items()}}


def git_sha():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args, bench):
    deadline = time.perf_counter() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        (Path(tmp) / "out").mkdir()
        setups = []
        if not args.trace:
            for _ in range(SETUP_SPAWNS):
                started, res = spawn(args, tmp, deadline, "--setup-only")
                raw = res["ready_at"] - started - res["interrupted"]
                setups.append((raw, raw * res["speed"]))
        _, res = spawn(args, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    if args.trace:
        values, counts = res["trace"], {}
        wanted = bench["per_layer"]
    else:
        values, counts = end_to_end(setups, res)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return res, metrics, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description="stab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stab" / "__init__.py").is_file():
        print(f"error: no stab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        res, metrics, counts = measure(args, bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    for err in res["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} "
          f"nproc={os.cpu_count()} git={git_sha()} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    print("# " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {failed / max(attempted, 1):14.6g} fraction")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
