#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, kept as a BENCH_<n>.json record.

    python3 scripts/bench_pairs.py --parent <commit> --workload rank_candidates \\
        --seeds 1-10 --out BENCH_18.json
    python3 scripts/bench_pairs.py --parent <commit> --workload rank_candidates \\
        --seeds 1001-1003 --key rank_candidates_heldout_seed --out BENCH_18.json

Both sides run from exports: the parent commit's files and the change's,
the working tree as ``git stash create`` records it (HEAD when the tree is
clean), are each written with ``git archive`` into a temporary directory
(removed afterwards), so neither side runs in the checkout and the
repository itself is not touched.  Files git does not track are not part of
the change; ``git add`` new files first.
Pair i runs seed i of ``--seeds`` (cycled to ``--pairs`` pairs) on both
sides, the parent first in odd pairs and the change first in even ones, each
as the benchmark's command with ``--workload W --seed S --seconds T --trace
0``.  The record has the layout of ``BENCH_14.json``: per end-to-end metric
of ``BENCHMARK.json``, each side's median and quartiles (linear
interpolation, as ``numpy.percentile``), the pairs the change wins (ties
count for neither) and the median ratio, then every run's report.  ``--out``
gains or replaces the ``--key`` section (the workload name by default), so
several invocations fill one file.

A run that exits non-zero, or prints no report, is recorded under
``failures`` with its side, seed, exit code and the last 20 lines of its
standard error; no further pair runs, and the script exits 1 once the record
is written.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_LINES = 20


def git(*args: str) -> str:
    """The standard output of a git command in the repository, stripped."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_commit(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` into the new directory ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def parse_seeds(text: str) -> list[int]:
    """'1-10', '1001,1002' or a mix such as '1-3,7'."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_side(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict | None, dict]:
    """One benchmark run in ``checkout``: its final JSON line and its report
    line, or None and the failure."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None, {"exit_code": done.returncode,
                      "stderr_tail": done.stderr.splitlines()[-STDERR_LINES:]}
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles and the pairs the change wins."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["report"]["metrics"]
    pairs = [p for p in by_pair.values() if {"parent", "change"} <= p.keys()]
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [p[side][name]["value"] for p in pairs] for side in ("parent", "change")}
        if not pairs:
            continue
        wins = sum(sign * (p["change"][name]["value"] - p["parent"][name]["value"]) > 0
                   for p in pairs)
        ties = sum(p["change"][name]["value"] == p["parent"][name]["value"] for p in pairs)
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_better_in_pairs": f"{wins}/{len(pairs)}",
            "ties": ties,
            "median_ratio_change_over_parent": (change["median"] / parent["median"]
                                                if parent["median"] else None),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit the change is compared with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 1001,1002")
    parser.add_argument("--pairs", type=int, default=None, help="default: one per seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--key", default=None, help="section of --out (default: the workload)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_commit = git("rev-parse", args.parent)
    change_commit = git("stash", "create") or git("rev-parse", "HEAD")
    pairs = args.pairs or len(args.seeds)
    runs, failures, env = [], [], None
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        export_commit(parent_commit, dirs["parent"])
        export_commit(change_commit, dirs["change"])
        for i in range(pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                final, report = run_side(dirs[side], benchmark["command"], args.workload, seed,
                                         args.seconds)
                if final is None:
                    failures.append({"pair": i + 1, "seed": seed, "side": side, **report})
                    break
                env = env or report.get("env")
                runs.append({"pair": i + 1, "seed": seed, "side": side, "report": final})
                print(f"pair {i + 1} seed {seed} {side}: ops_per_s "
                      f"{final['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)
            if failures:
                break

    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record.update({
        "what": "bench run reports for alternating parent/change pairs (odd pairs run the "
                "parent first, even pairs the change first); both sides of a pair use the "
                "same --seed",
        "command": " ".join([*benchmark["command"], "--workload <workload>", "--seed <seed>",
                             f"--seconds {args.seconds:g}", "--trace 0"]),
        "parent_commit": parent_commit,
        "quartiles": "linear interpolation over the runs of one side, as numpy.percentile; "
                     "iqr = q3 - q1",
    })
    record.setdefault("workloads", {})[args.key or args.workload] = {
        "workload": args.workload,
        "seeds": args.seeds,
        "pairs": len({r["pair"] for r in runs if r["side"] == "change"}
                     & {r["pair"] for r in runs if r["side"] == "parent"}),
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
        "failures": failures,
    }
    if env is not None:
        record["environment"] = env
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for failure in failures:
        print(f"run failed: pair {failure['pair']} seed {failure['seed']} {failure['side']} "
              f"exit code {failure['exit_code']}", file=sys.stderr)
        print("\n".join(failure["stderr_tail"]), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
