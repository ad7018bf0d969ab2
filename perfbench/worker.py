"""One workload in one fresh process: set-up, timed closed loop, checks.

Started by run.py, never by hand. It prints ``ready`` on stdout once the
workload's fixed inputs exist (run.py times set-up up to that line), and one
JSON object as its last stdout line when it ends. BLAS and OpenMP thread
counts must be set in the environment before this module imports NumPy.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_capwave(root: Path):
    """capwave from the checkout's source tree, never an installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import capwave
    if Path(capwave.__file__).resolve().parent != (src / "capwave").resolve():
        raise ImportError(f"capwave imported from {capwave.__file__}, not {src}")
    return capwave


def _blas_threads() -> dict[str, int]:
    """Threads each bundled OpenBLAS will use, read from the library itself."""
    import numpy
    import scipy
    out = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    out[mod.__name__] = int(fn())
                    break
    return out


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "git_commit": _git_commit(root), "seed": seed}


def _phase(workload, seconds: float, run_op) -> dict:
    """Closed loop until ``seconds`` have passed; at least one operation."""
    clock = time.perf_counter
    times, outputs, errors = [], [], []
    attempted = failed = 0
    deadline = clock() + seconds
    i = 0
    while True:
        items = workload.items_per_op
        t0 = clock()
        try:
            raw = run_op(workload.op, i)
        except Exception:
            raw, error = None, traceback.format_exc()
        else:
            error = None
        t1 = clock()
        times.append(t1 - t0)
        attempted += items
        if error is None:
            try:
                outputs.append((i, workload.collect(raw)))
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += items
            errors.append(error)
            print(error, file=sys.stderr)
        i += 1
        if t1 >= deadline:
            return {"op_s": times, "outputs": outputs, "attempted": attempted,
                    "failed": failed, "errors": errors}


def _direct(fn, i):
    return fn(i)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", type=Path, default=None)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record", action="store_true",
                      help="print reference values for every distinct input")
    args = parser.parse_args(argv)

    _import_capwave(args.root)
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.root, args.seed, args.size, args.tmp)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.record:
        n = workloads.REFERENCE_OPS[args.workload]
        outputs = [(i, workload.collect(workload.op(i))) for i in range(n)]
        print(json.dumps(workload.reference_values(outputs)))
        return 0

    result = {"workload": args.workload, "item": workload.item}
    if args.trace:
        plain = _phase(workload, args.seconds / 2, _direct)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _phase(workload, args.seconds / 2, tracer.op)
        finally:
            tracer.uninstall()
        overhead = (sum(traced["op_s"]) / len(traced["op_s"])) / (
            sum(plain["op_s"]) / len(plain["op_s"]))
        result["per_layer"] = tracer.metrics(overhead)
        result["trace_ops"] = tracer.ops
        result["trace_root_s"] = tracer.wall_s()
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans)
        phases = [plain, traced]
    else:
        phases = [_phase(workload, args.seconds, _direct)]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["op_s"] = phases[0]["op_s"]
    result["items_per_op"] = workload.items_per_op

    reference = None
    if args.size == "full" and args.seed == workloads.DEFAULT_SEED:
        ref_path = Path(workloads.__file__).with_name("reference.json")
        reference = json.loads(ref_path.read_text())[args.workload]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    errors = [e for p in phases for e in p["errors"]]
    outputs = [o for p in phases for o in p["outputs"]]
    if outputs:
        try:
            failed += sum(workload.check(outputs, reference))
        except Exception:
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            failed = attempted
    result.update(attempted=attempted, failed=failed, errors=errors,
                  env=environment(args.root, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
