"""Benchmark of qspectral: closed-loop workloads with one client each.

    python3 bench/run.py --workload trace_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload rank_candidates --smoke   # one op and its check
    python3 bench/run.py --selftest                          # corrupted results count as failed

A run starts several workload processes one after another, each a fresh
interpreter (``worker.py``) that measures its own set-up and then runs timed
ops for an equal share of ``--seconds``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` half of the processes run with every public function of the
program wrapped by ``tracer.py``, and the line holds the per-layer metrics and
the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("trace_sweep", "rank_candidates", "wide_register")
PROCESSES = 6  # fresh interpreters per untraced run; setup_s is their median
TRACE_PROCESSES = 2  # per side (untraced, traced) in a traced run
TIME_LIMIT_S = 150.0  # the whole run, well inside the 180 s a run may take
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Fixed per workload, so that runs of different speed compare alike: the
# highest of 50/75/90/95/99 that leaves TAIL_BEYOND samples above it, with a
# margin, in a 25-second run on a 2-core machine.
TAIL_PERCENTILE = {"trace_sweep": 75, "rank_candidates": 90, "wide_register": 50}


class BenchError(RuntimeError):
    pass


def spawn_worker(workload: str, seed: int, proc: int, budget: float, trace: int,
                 run_deadline: float, workdir: Path) -> dict:
    result = workdir / f"result{proc}-{trace}.json"
    spawn = time.monotonic()
    deadline = min(run_deadline, spawn + budget + 30.0)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--proc", str(proc), "--budget", repr(budget),
           "--trace", str(trace), "--spawn", repr(spawn), "--deadline", repr(deadline),
           "--workdir", str(workdir / f"proc{proc}-{trace}"), "--result", str(result)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(5.0, deadline - spawn + 20.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {proc} did not finish in time") from exc
    if done.returncode != 0 or not result.is_file():
        raise BenchError(f"worker {proc} exited with code {done.returncode}")
    out = json.loads(result.read_text())
    if out["setup_s"] is None:
        raise BenchError(f"worker {proc} ran {out['attempted']} op(s) before its deadline")
    return out


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def end_to_end(results: list[dict], tail_percentile: int) -> tuple[dict, dict]:
    latencies = sorted(lat for r in results for lat in r["latencies_s"])
    if not latencies:
        raise BenchError("no op completed its check")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    beyond = len(latencies) - math.ceil(tail_percentile / 100.0 * len(latencies))
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "ops_per_s": (len(latencies) / sum(r["timed_s"] for r in results), "1/s"),
        "op_p50_ms": (1e3 * nearest_rank(latencies, 50), "ms"),
        "op_tail_ms": (1e3 * nearest_rank(latencies, tail_percentile), "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "samples": len(latencies),
        "tail_percentile": tail_percentile,
        "tail_samples_beyond": beyond,
        "tail_has_enough_samples": beyond >= TAIL_BEYOND,
        "failed_ratio": failed / attempted,
        "setup_s_per_process": [r["setup_s"] for r in results],
        "warmup_ops_per_process": [r["warmup_ops"] for r in results],
        "timed_ops_per_process": [r["timed_ops"] for r in results],
        "ops_per_s_per_process": [len(r["latencies_s"]) / r["timed_s"] for r in results],
    }
    return metrics, details


def run_benchmark(args) -> dict:
    import tracer as tracing

    tail_percentile = TAIL_PERCENTILE[args.workload]
    run_deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not args.trace:
            budget = args.seconds / PROCESSES
            results = [spawn_worker(args.workload, args.seed, p, budget, 0, run_deadline, workdir)
                       for p in range(PROCESSES)]
            metrics, details = end_to_end(results, tail_percentile)
            traced = []
        else:
            budget = args.seconds / (2 * TRACE_PROCESSES)
            results, traced = [], []
            for p in range(TRACE_PROCESSES):  # alternate, so drift hits both sides alike
                results.append(spawn_worker(args.workload, args.seed, p, budget, 0,
                                            run_deadline, workdir))
                traced.append(spawn_worker(args.workload, args.seed, p, budget, 1,
                                           run_deadline, workdir))
            untraced_metrics, details = end_to_end(results, tail_percentile)
            traced_metrics, _ = end_to_end(traced, tail_percentile)
            metrics = tracing.per_layer_metrics(tracing.merge([r["snapshot"] for r in traced]))
            plain = untraced_metrics["ops_per_s"][0]
            with_trace = traced_metrics["ops_per_s"][0]
            metrics["trace.ops_per_s_untraced"] = (plain, "1/s")
            metrics["trace.ops_per_s_traced"] = (with_trace, "1/s")
            metrics["trace.overhead_ratio"] = (plain / with_trace - 1.0, "ratio")
            gaps = [r["diag"].get("oracle_gap", 0.0) for r in results + traced]
            metrics["readout.oracle_gap_max"] = (max(gaps), "prob")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    everything = results + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    details["problems"] = [p for r in everything for p in r["problems"]][:5]
    details["closed_form_residual_max"] = max(r["diag"].get("closed_form_residual", 0.0)
                                              for r in everything)
    details["env"] = results[0]["env"]
    return {"metrics": metrics, "details": details, "attempted": attempted, "failed": failed}


def smoke(workload: str, seed: int) -> int:
    """One op of one workload and its check, in this process."""
    import worker

    wl = worker.bootstrap().WORKLOADS[workload]
    workdir = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    try:
        inputs = wl.make_inputs(seed, 0, workdir)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):  # the verbs print their output paths
            result = wl.run_op(inputs, 0)
        latency = time.perf_counter() - t0
        problems, diag = wl.check(inputs, 0, result)
        wl.cleanup(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    status = "PASS" if not problems else "FAIL"
    print(f"{status} {workload}: one op in {1e3 * latency:.1f} ms (cold), diagnostics {diag}")
    for p in problems:
        print(f"  {p}")
    return 0 if not problems else 1


class _Corrupted:
    """A workload whose op result is corrupted before the check sees it."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt

    def run_op(self, inputs, i):
        return self.corrupt(self.wl.run_op(inputs, i))

    def check(self, inputs, i, result):
        return self.wl.check(inputs, i, result)

    def cleanup(self, result):
        self.wl.cleanup(result)


def selftest(seed: int) -> int:
    """Every workload's clean op passes and each corrupted one counts as failed,
    through the same loop that counts failures in a run."""
    import worker

    workloads = worker.bootstrap()
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    bad = 0
    try:
        for name in WORKLOADS:
            wl = workloads.WORKLOADS[name]
            inputs = wl.make_inputs(seed, 0, workdir / name)
            cases = {"clean op": (wl, 0), **{label: (_Corrupted(wl, fn), 1)
                                              for label, fn in wl.corruptions().items()}}
            for label, (runner, expected) in cases.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    out = worker.run_ops(runner, inputs, 0.0, math.inf, max_ops=1)
                ok = out["failed"] == expected
                bad += not ok
                verdict = "counted as failed" if out["failed"] else "passed its check"
                print(f"{'PASS' if ok else 'FAIL'} {name}: {label} {verdict}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op of --workload and its check")
    parser.add_argument("--selftest", action="store_true",
                        help="check that corrupted op results count as failed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qspectral" / "__init__.py").is_file():
        print(f"error: no qspectral sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.smoke:
        return smoke(args.workload, args.seed)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        run = run_benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in run["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 **run["details"]}}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
