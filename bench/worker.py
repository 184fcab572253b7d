"""One workload process: import, make inputs, warm up, run timed ops, report.

``run.py`` starts this file in a fresh interpreter for every process of a run
and reads the JSON result it writes.  The process leaves the BLAS thread
settings as it finds them and records them.

Set-up ends, and timing starts, at the first op that, together with the op
after it, runs within ``SETTLE_FACTOR`` of the process's steady median op
latency, with at least one warm-up op before it.  This is decided after the
ops have run, so set-up spans the first stretch after import during which
small multithreaded BLAS calls run many times slower than later on.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETTLE_FACTOR = 2.0
MIN_OPS = 3


class SetupError(RuntimeError):
    pass


def bootstrap():
    """Import the checkout's ``qspectral`` and the workload module."""
    src = ROOT / "src"
    if not (src / "qspectral" / "__init__.py").is_file():
        raise SetupError(f"no qspectral sources under {src}")
    sys.path.insert(0, str(src))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import qspectral

    if Path(qspectral.__file__).resolve().parent != (src / "qspectral").resolve():
        raise SetupError(f"imported qspectral from {qspectral.__file__}, not from {src}")
    import workloads

    return workloads


def _blas_runtime() -> dict:
    """Thread count and configuration reported by the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            out = {"blas_library_file": Path(path).name, "blas_threads": threads()}
            if config is not None:
                config.restype = ctypes.c_char_p
                out["blas_runtime_config"] = config().decode()
            return out
    return {}


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = blas.get("name")
        env["blas_version"] = blas.get("version")
    except (TypeError, KeyError):
        env["blas"] = env["blas_version"] = None
    env.update(_blas_runtime())
    return env


def first_timed_op(latencies: list[float]) -> int:
    """Index of the first timed op (see the module docstring)."""
    limit = SETTLE_FACTOR * statistics.median(latencies[1:])
    for i in range(1, len(latencies)):
        if latencies[i] <= limit and (i + 1 == len(latencies) or latencies[i + 1] <= limit):
            return i
    return len(latencies) - 1


def run_ops(wl, inputs, budget_s: float, deadline: float, tracer=None, max_ops=None) -> dict:
    """Closed loop of ops, each followed by its check, until the timed ops
    have taken ``budget_s`` seconds (or ``max_ops`` ops have run)."""
    starts, latencies, ok, snapshots, diags, problems = [], [], [], [], [], []
    i = 0
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.enabled = True
        t0 = time.monotonic()
        try:
            result = wl.run_op(inputs, i)
            error = None
        except Exception:  # an op that raises counts as failed; keep measuring
            result, error = None, traceback.format_exc(limit=4)
        t1 = time.monotonic()
        if tracer is not None:
            tracer.enabled = False
            snapshots.append(tracer.snapshot())
        found = [error] if error else []
        if result is not None:
            try:
                bad, diag = wl.check(inputs, i, result)
                found += bad
                diags.append(diag)
            except Exception:
                found.append(traceback.format_exc(limit=4))
            wl.cleanup(result)
        starts.append(t0)
        latencies.append(t1 - t0)
        ok.append(not found)
        problems += [f"op {i}: {p}" for p in found]
        i += 1
        if max_ops is not None and i >= max_ops:
            break
        if i >= MIN_OPS and sum(latencies[first_timed_op(latencies):]) >= budget_s:
            break
        if t1 >= deadline:
            break
    k = first_timed_op(latencies) if len(latencies) >= 2 else len(latencies)
    return {
        "first_timed_start": starts[k] if k < len(starts) else None,
        "warmup_ops": k,
        "latencies_s": [lat for lat, good in zip(latencies[k:], ok[k:]) if good],
        "timed_s": sum(latencies[k:]),
        "timed_ops": len(latencies) - k,
        "attempted": len(latencies),
        "failed": ok.count(False),
        "problems": problems[:5],
        "diag": {key: max(d.get(key, 0.0) for d in diags) for key in
                 ("closed_form_residual", "oracle_gap")} if diags else {},
        "snapshots": snapshots[k:],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--proc", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--deadline", type=float, required=True, help="time.monotonic() limit")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    try:
        workloads = bootstrap()
    except (SetupError, ImportError) as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    import tracer as tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, callers=[workloads])
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = wl.make_inputs(args.seed, args.proc, workdir)
    out = run_ops(wl, inputs, args.budget, args.deadline, tracer)
    out["setup_s"] = (None if out["first_timed_start"] is None
                      else out["first_timed_start"] - args.spawn)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    snapshots = out.pop("snapshots")
    if tracer is not None:
        out["snapshot"] = tracing.merge(snapshots)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
