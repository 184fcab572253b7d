#!/usr/bin/env python3
"""In-process cost of each extra cluster-quantum candidate, parent against change.

    python3 scripts/candidate_sweep.py --parent <commit> --out BENCH_20.json

Times ``qspectral.cli.main(["cluster-quantum", ...])`` called in-process on
one instance of the benchmark's ``rank_candidates`` shape (32 points in four
orthogonal blobs, noise 0.08, gram target, m=6, biased kappa=1, standard
iterate, max_iter 40, stop_tol 0.05) at ``scrambled`` 0, 4 and 9, that is 4,
20 and 40 candidates.  A least-squares line through the three medians gives
the fixed cost of a call and the cost of each added candidate.  A second pass
wraps the stages of a call (module functions, ``time.perf_counter`` around
each) and reports each stage's time at 4 and 20 candidates and per added
candidate.

The parent commit's files are written with ``git archive`` into a temporary
directory; the change is this checkout's working tree.  Each side runs in an
interpreter of its own with its ``src`` first on ``sys.path``; the sides
alternate, the parent first in odd rounds.  ``--out`` gains or replaces the
``in_process_candidate_sweep`` section.  Uses the standard library only
(the worker imports numpy and yaml, as the package does).
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import export_commit  # this directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
SCRAMBLED = (0, 4, 9)  # 4, 20 and 40 candidates
STAGE_SCRAMBLED = (0, 4)
STAGES = {  # label: (module, attribute); the attribute is replaced by a timed wrapper
    "cli.main": ("cli", "main"),
    "qpea.amplify_many": ("readout", "amplify_many"),
    "qpea._rotate": ("qpea", "_rotate"),
    "readout.cluster_quantum": ("readout", "cluster_quantum"),
    "readout.span_similarities": ("readout", "span_similarities"),
    "readout._ranked": ("readout", "_ranked"),
    "readout._register_similarities": ("readout", "_register_similarities"),
    "csvio.write_ranking": ("csvio", "write_ranking"),
    "datasets.scrambled_indicators": ("datasets", "scrambled_indicators"),
}


def worker(src: Path, calls: int) -> dict:
    """Median microseconds per call at each candidate count, and per stage."""
    import contextlib
    import functools
    import importlib
    import time

    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import numpy as np
    import yaml
    from worker import environment  # the benchmark's record of BLAS and its threads

    from qspectral import cli

    work = Path(tempfile.mkdtemp())
    rng = np.random.default_rng([1, 0, 0])
    points = np.vstack([c + 0.08 * rng.normal(size=(8, 4)) for c in np.eye(4)])
    points = points[rng.permutation(32)]
    lines = [",".join(f"x{d}" for d in range(4))]
    lines += [",".join(repr(float(v)) for v in row) for row in points]
    (work / "points.csv").write_text("\n".join(lines) + "\n")
    argv = {}
    for scrambled in SCRAMBLED:
        config = {"seed": int(rng.integers(2**31)),
                  "dataset": {"kind": "csv", "path": str(work / "points.csv")},
                  "graph": {"kind": "full", "sigma": 1.0, "squared_norm": True},
                  "target": "gram", "k": 4, "variant": "unnormalized",
                  "pea": {"m": 6, "mode": "biased", "kappa": 1.0, "standard_grover": True},
                  "amplify": {"max_iter": 40, "stop_tol": 0.05}, "scrambled": scrambled}
        path = work / f"config{scrambled}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=True))
        argv[scrambled] = ["cluster-quantum", "--config", str(path), "--out", str(work / "out")]

    def call(scrambled: int) -> float:
        start = time.perf_counter()
        if cli.main(argv[scrambled]) != 0:
            raise RuntimeError(f"cluster-quantum failed at scrambled {scrambled}")
        return (time.perf_counter() - start) * 1e6

    out = {"environment": environment()}
    with contextlib.redirect_stdout(io.StringIO()):
        for scrambled in SCRAMBLED:
            for _ in range(20):
                call(scrambled)
        samples = {scrambled: [] for scrambled in SCRAMBLED}
        for _ in range(calls):  # the counts interleaved, so a slow phase hits each alike
            for scrambled in SCRAMBLED:
                samples[scrambled].append(call(scrambled))
        out["calls"] = {scrambled: statistics.median(v) for scrambled, v in samples.items()}

        totals: dict[str, float] = {}
        for label, (module, attr) in STAGES.items():
            mod = importlib.import_module(f"qspectral.{module}")

            def timed(*args, _f=getattr(mod, attr), _label=label, **kwargs):
                start = time.perf_counter()
                try:
                    return _f(*args, **kwargs)
                finally:
                    totals[_label] = totals.get(_label, 0.0) + time.perf_counter() - start

            setattr(mod, attr, functools.wraps(getattr(mod, attr))(timed))
        stages = {scrambled: {label: [] for label in STAGES} for scrambled in STAGE_SCRAMBLED}
        for _ in range(calls):
            for scrambled in STAGE_SCRAMBLED:
                totals.clear()
                cli.main(argv[scrambled])
                for label in STAGES:
                    stages[scrambled][label].append(totals.get(label, 0.0) * 1e6)
        out["stages"] = {scrambled: {label: statistics.median(v) for label, v in by_label.items()}
                         for scrambled, by_label in stages.items()}
    shutil.rmtree(work)
    return out


def fit(us: list[float]) -> tuple[float, float]:
    """Cost per candidate and fixed cost: the least-squares line through the
    times at 4, 20 and 40 candidates."""
    return statistics.linear_regression([4 * (1 + s) for s in SCRAMBLED], us)


def summarize(rounds: list[dict]) -> dict:
    """Per side: median over rounds of each count's time, the line through
    those medians, each round's own slope, and the stage table; and the rounds
    in which the change's slope is below the parent's of the same round."""
    sides = {}
    for side in ("parent", "change"):
        runs = [r["result"] for r in rounds if r["side"] == side]
        candidates = [4 * (1 + s) for s in SCRAMBLED]
        us = [statistics.median(run["calls"][str(s)] for run in runs) for s in SCRAMBLED]
        slope, fixed = fit(us)
        low, high = (4 * (1 + s) for s in STAGE_SCRAMBLED)
        stages = {}
        for label in STAGES:
            a, b = (statistics.median(run["stages"][str(s)][label] for run in runs)
                    for s in STAGE_SCRAMBLED)
            stages[label] = {f"us_at_{low}": a, f"us_at_{high}": b,
                             "us_per_added_candidate": (b - a) / (high - low)}
        sides[side] = {"candidates": candidates, "median_us_per_call": us,
                       "us_per_candidate": slope, "fixed_us": fixed,
                       "us_per_candidate_by_round": [
                           fit([run["calls"][str(s)] for s in SCRAMBLED])[0] for run in runs],
                       "stages": stages}
    pairs = list(zip(sides["parent"]["us_per_candidate_by_round"],
                     sides["change"]["us_per_candidate_by_round"]))
    wins = sum(change < parent for parent, change in pairs)
    sides["change_lower_slope_in_rounds"] = f"{wins}/{len(pairs)}"
    return sides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit the change is compared with")
    parser.add_argument("--out", type=Path, help="BENCH_<n>.json to gain the section")
    parser.add_argument("--rounds", type=int, default=4, help="interpreters per side")
    parser.add_argument("--calls", type=int, default=300, help="timed calls per count and round")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker, args.calls)))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")

    parent_commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    rounds = []
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp) / "parent"
        export_commit(parent_commit, parent_dir)
        for i in range(args.rounds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                src = (parent_dir if side == "parent" else ROOT) / "src"
                done = subprocess.run([sys.executable, __file__, "--worker", str(src),
                                       "--calls", str(args.calls)],
                                      capture_output=True, text=True, check=True)
                rounds.append({"round": i + 1, "side": side, "result": json.loads(done.stdout)})
                print(f"round {i + 1} {side}: {rounds[-1]['result']['calls']}", file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record["in_process_candidate_sweep"] = {
        "what": "in-process qspectral.cli.main cluster-quantum on one rank_candidates-shaped "
                "instance at 4, 20 and 40 candidates (scrambled 0, 4, 9); median of "
                f"{args.calls} calls per count and interpreter, median over {args.rounds} "
                "interpreters per side; fixed_us and us_per_candidate are the least-squares "
                "line through the three medians; stages are wrapped module functions at 4 "
                "and 20 candidates",
        "command": f"python3 scripts/candidate_sweep.py --parent {args.parent} --out {args.out} "
                   f"--rounds {args.rounds} --calls {args.calls}",
        "parent_commit": parent_commit,
        "environment": rounds[0]["result"]["environment"],
        "sides": summarize(rounds),
        "rounds": rounds,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
