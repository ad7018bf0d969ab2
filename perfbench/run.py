"""capwave benchmark entry point.

    python3 perfbench/run.py --workload table-reduced --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another
    python3 perfbench/run.py --smoke               # self-check at tiny sizes
    python3 perfbench/run.py --record-reference    # rewrite reference.json (seed 0)

Each workload runs in a fresh worker process (worker.py) with BLAS and
OpenMP pinned to one thread. Set-up is timed from process start to the
worker's ``ready`` line, in SETUP_PROBES extra set-up-only processes and in
the measuring worker, and reported as the median. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which hold the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and
its per-layer metrics with ``--trace 1``. See README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table-reduced", "recon-offcenter", "vector-cap")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Each workload's headline figure under the name README.md gives it.
HEADLINE = {
    "table-reduced": ("table_rows_per_s", "items_per_s", "rows/s"),
    "recon-offcenter": ("recon_s_p50", "op_s_p50", "s"),
    "vector-cap": ("vector_points_per_s", "items_per_s", "points/s"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _run_worker(tmp: Path, args: list[str], timeout: float) -> tuple[float, list[str]]:
    """Start worker.py, time it to its ``ready`` line, return (setup_s, later lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--tmp", str(tmp), *args]
    env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
    start = time.perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out = b""
    setup_s = None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"worker timed out after {timeout:.0f} s: {args}")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup_s is None and out.startswith(b"ready\n"):
                setup_s = time.perf_counter() - start
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise BenchError(f"worker exited with code {proc.returncode}: {args}")
    return setup_s, out.decode().splitlines()[1:]


def _tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            ordered = sorted(samples)
            return f"p{p:g}", ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]
    return None


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    """Measure one workload; returns the result object plus details."""
    start = time.perf_counter()
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--size", size]
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(_run_worker(tmp, base + ["--setup-only"], 60.0)[0])
        spans = HERE / "out" / f"spans-{name}-seed{seed}.json"
        setup_s, lines = _run_worker(
            tmp, base + ["--trace", str(trace), "--spans", str(spans)],
            DEADLINE_S - (time.perf_counter() - start))
        setups.append(setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not lines:
        raise BenchError(f"worker printed no result for {name}")
    worker = json.loads(lines[-1])

    op_s = worker["op_s"]
    if trace:
        metrics = worker["per_layer"]
        units = _per_layer_units()
    else:
        # Items over the summed operation time, not a median of per-operation
        # rates: a shared host slows this process by up to 40% for stretches
        # of seconds to minutes, so per-operation times are two-state, and
        # their median jumps to whichever state holds the majority while the
        # overall rate moves with the share of each (see README.md).
        metrics = {"items_per_s": worker["items_per_op"] * len(op_s) / sum(op_s),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": worker["peak_rss_mb"]}
        units = END_TO_END
    return {
        "result": {"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                   "failed": worker["failed"],
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
        "details": {"workload": name, "seed": seed, "trace": trace, "size": size,
                    "item": worker["item"], "ops": len(op_s), "op_s": op_s,
                    "op_s_p50": statistics.median(op_s),
                    "op_s_tail": _tail_percentile(op_s),
                    "setup_samples_s": setups, "env": worker["env"],
                    "trace_ops": worker.get("trace_ops"),
                    "trace_root_s": worker.get("trace_root_s"),
                    "errors": worker["errors"][:3]},
    }


def _per_layer_units() -> dict[str, str]:
    sys.path.insert(0, str(HERE))
    from tracer import metric_units
    return metric_units()


def report(run: dict) -> None:
    """Human-readable lines, then a detail line, then the result line last."""
    res, det = run["result"], run["details"]
    m = res["metrics"]
    print(f"# {det['workload']} seed={det['seed']} trace={det['trace']} "
          f"ops={det['ops']} ({det['item']})")
    if not det["trace"]:
        alias, key, unit = HEADLINE[det["workload"]]
        value = m[key]["value"] if key in m else det[key]
        print(f"{alias} = {value:.6g} {unit}")
        tail = det["op_s_tail"]
        tail_text = f", {tail[0]} = {tail[1]:.6g} s" if tail else ", no tail percentile"
        print(f"op_s_p50 = {det['op_s_p50']:.6g} s "
              f"(n = {det['ops']} operations{tail_text})")
        for key in END_TO_END:
            print(f"{key} = {m[key]['value']:.6g} {m[key]['unit']}")
    share = res["failed"] / res["attempted"]
    print(f"failed_share = {share:.6g} share ({res['failed']} of {res['attempted']} {det['item']})")
    print(json.dumps({"details": det}))
    print(json.dumps(res), flush=True)


def record_reference() -> None:
    """Store seed-0 outputs of every distinct input, for later runs to match."""
    reference = {}
    for name in WORKLOADS:
        tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            _, lines = _run_worker(tmp, ["--workload", name, "--seed", "0",
                                         "--seconds", "0", "--record"], 900.0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        reference[name] = json.loads(lines[-1])
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def smoke() -> None:
    """Every metric of BENCHMARK.json is emitted with its unit, and traced
    self times add up to the traced operations' wall time."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(name, 0, 1.0, trace, size="smoke")
            report(run)
            res, det = run["result"], run["details"]
            emitted = {k: v["unit"] for k, v in res["metrics"].items()}
            if emitted != declared[trace]:
                raise BenchError(f"{name} trace={trace}: metrics {sorted(emitted)} "
                                 f"differ from BENCHMARK.json {sorted(declared[trace])}")
            if not res["correct"]:
                raise BenchError(f"{name} trace={trace}: {res['failed']} failed: {det['errors']}")
            if trace:
                self_sum = det["trace_ops"] * sum(
                    v["value"] for k, v in res["metrics"].items() if k.endswith(".self_s"))
                if abs(self_sum - det["trace_root_s"]) > 1e-9 * max(det["trace_root_s"], 1.0):
                    raise BenchError(f"{name}: self times sum to {self_sum} s, "
                                     f"traced wall time is {det['trace_root_s']} s")
    print("smoke: ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capwave benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="self-check at tiny sizes")
    mode.add_argument("--record-reference", action="store_true",
                      help="rewrite reference.json from this commit at seed 0")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        if args.smoke:
            smoke()
        elif args.record_reference:
            record_reference()
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            for name in names:
                report(run_workload(name, args.seed, args.seconds, args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
