"""The benchmark's workloads: seeded inputs, one op each, and the op's check.

Every workload touches the program only through its public entry points
(``qspectral.cli.main`` and the library calls of the README sketch) and hands
it only inputs generated here from the run's seed.  A check returns the list
of problems it found (empty when the op is correct) and a few diagnostics.

Importing this module imports ``qspectral``, so the caller must have put the
checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import filecmp
import shutil
from pathlib import Path

import numpy as np
import yaml

from qspectral import PeaConfig, amplify, csvio, make_evolution, readout
from qspectral.cli import main as cli_main
from qspectral.datasets import random_psd_matrix, random_range_input
from qspectral.experiments import figure_instance, trace_suite
from tracer import closed_form_residual

CLOSED_FORM_TOL = 1e-9  # |marked_prob - sin^2((2t+1) theta)|, standard Grover iterate
PEAK_FIDELITY_MIN = 0.99
STALL_TOL = 0.02  # |success(1) - success(0)| at kappa = sqrt(2^m)


def _rng(seed: int, proc: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, proc, *more])


class Workload:
    name: str

    def cleanup(self, result) -> None:
        """Remove what the op left on disk (after its check)."""


# ---------------------------------------------------------------------------
# trace_sweep: one seed of the acceptance sweep per op


class TraceSweep(Workload):
    """Figure instance (N=16, rank 6), m=6, qft / kappa=1 / kappa=20 at 150
    iterates, plus the kappa=8 one-iterate stall run.

    Ops draw from the 25 instances of the acceptance sweep in an order the
    seed picks; the fidelity floor is the acceptance criterion's, which holds
    on those instances (not on every figure instance).
    """

    name = "trace_sweep"
    sweep_seeds = 25
    max_iter = 150

    def make_inputs(self, seed: int, proc: int, workdir: Path):
        return {"order": _rng(seed, proc).permutation(self.sweep_seeds)}

    def run_op(self, inputs, i: int):
        H, y = figure_instance(int(inputs["order"][i % self.sweep_seeds]))
        evo = make_evolution(H, m=6)
        results = trace_suite(H, y, m=6, max_iter=self.max_iter, standard_grover=True,
                              stop_tol=None, evo=evo)
        stall_cfg = PeaConfig(m=6, kappa=8.0, mode="biased", standard_grover=True)
        _, stall = amplify(stall_cfg, evo, y, max_iter=1, stop_tol=None)
        return {"trajectories": [res.trajectory for res in results], "stall": stall}

    def check(self, inputs, i: int, result):
        problems = []
        residual = 0.0
        for traj in result["trajectories"]:
            if len(traj) != self.max_iter + 1:
                problems.append(f"{traj.mode}_{traj.kappa}: {len(traj)} records")
                continue
            r = closed_form_residual(traj)
            residual = max(residual, r)
            if not r <= CLOSED_FORM_TOL:
                problems.append(f"{traj.mode}_{traj.kappa}: closed-form residual {r:.3e}")
            if not traj.peak_fidelity >= PEAK_FIDELITY_MIN:
                problems.append(f"{traj.mode}_{traj.kappa}: peak fidelity {traj.peak_fidelity:.4f}")
        if len(result["trajectories"]) != 3:
            problems.append(f"{len(result['trajectories'])} trajectories, expected 3")
        stall = result["stall"]
        delta = abs(stall.success_prob[1] - stall.success_prob[0])
        if not delta <= STALL_TOL:
            problems.append(f"stall run moved success by {delta:.3e}")
        return problems, {"closed_form_residual": residual}

    def corruptions(self):
        def scale_marked(result):
            trajs = list(result["trajectories"])
            trajs[1] = dataclasses.replace(trajs[1], marked_prob=trajs[1].marked_prob * 1.0001)
            return {**result, "trajectories": trajs}

        def lower_fidelity(result):
            trajs = list(result["trajectories"])
            trajs[2] = dataclasses.replace(trajs[2], fidelity=trajs[2].fidelity * 0.98)
            return {**result, "trajectories": trajs}

        def move_stall(result):
            stall = result["stall"]
            success = stall.success_prob.copy()
            success[1] += 0.05
            return {**result, "stall": dataclasses.replace(stall, success_prob=success)}

        return {"scaled marked_prob": scale_marked, "lowered fidelity": lower_fidelity,
                "moved stall run": move_stall}


# ---------------------------------------------------------------------------
# rank_candidates: one in-process cluster-quantum call per op


def indicator_name(members) -> str:
    return "ind_" + "-".join(str(int(i)) for i in sorted(members))


class RankCandidates(Workload):
    """32 points in four orthogonal blobs, ranked through ``cluster-quantum``.

    Gram target, full graph (sigma 1, squared norm), k=4, m=6, biased kappa=1
    with the standard Grover iterate, max_iter 40 and stop_tol 0.05, four
    scrambled sets: 20 candidates per op.  Each process writes a pool of
    instances and cycles through it.
    """

    name = "rank_candidates"
    pool = 4
    blobs = 4
    blob_size = 8
    noise = 0.08
    scrambled = 4

    def make_inputs(self, seed: int, proc: int, workdir: Path):
        instances = []
        for j in range(self.pool):
            rng = _rng(seed, proc, j)
            centers = np.eye(self.blobs)
            points = np.vstack([c + self.noise * rng.normal(size=(self.blob_size, self.blobs))
                                for c in centers])
            perm = rng.permutation(points.shape[0])
            points = points[perm]
            truth = np.repeat(np.arange(self.blobs), self.blob_size)[perm]
            base = workdir / f"instance{j}"
            base.mkdir(parents=True, exist_ok=True)
            csv_path = base / "points.csv"
            lines = [",".join(f"x{d}" for d in range(self.blobs))]
            lines += [",".join(repr(float(v)) for v in row) for row in points]
            csv_path.write_text("\n".join(lines) + "\n")
            config = {
                "seed": int(rng.integers(2**31)),
                "dataset": {"kind": "csv", "path": str(csv_path)},
                "graph": {"kind": "full", "sigma": 1.0, "squared_norm": True},
                "target": "gram",
                "k": self.blobs,
                "variant": "unnormalized",
                "pea": {"m": 6, "mode": "biased", "kappa": 1.0, "standard_grover": True},
                "amplify": {"max_iter": 40, "stop_tol": 0.05},
                "scrambled": self.scrambled,
            }
            config_path = base / "config.yaml"
            config_path.write_text(yaml.safe_dump(config, sort_keys=True))
            true_names = {indicator_name(np.flatnonzero(truth == c)) for c in range(self.blobs)}
            instances.append({"config": config_path, "base": base, "truth": truth,
                              "true_names": true_names})
        return {"instances": instances}

    def run_op(self, inputs, i: int):
        inst = inputs["instances"][i % self.pool]
        out = inst["base"] / f"op{i}"
        rc = cli_main(["cluster-quantum", "--config", str(inst["config"]), "--out", str(out)])
        return {"rc": rc, "out": out}

    def check(self, inputs, i: int, result):
        inst = inputs["instances"][i % self.pool]
        out = result["out"]
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"], {}
        problems = []
        ranking = csvio.read_ranking(out / "similarity_ranking.csv")
        labels = csvio.read_labels(out / "labels_quantum.csv")
        problems += _round_trip(out / "similarity_ranking.csv", csvio.write_ranking,
                                _reports(ranking))
        problems += _round_trip(out / "labels_quantum.csv", csvio.write_labels, labels)

        quantum = sorted((r for r in ranking if r["method"] == "householder"),
                         key=lambda r: r["rank"])
        direct = {r["y_id"]: r["similarity"] for r in ranking if r["method"] == "direct"}
        expected = self.blobs * (1 + self.scrambled)
        if len(quantum) != expected or len(direct) != expected:
            problems.append(f"{len(quantum)} quantum / {len(direct)} direct rows, "
                            f"expected {expected} each")
        if [r["rank"] for r in quantum] != list(range(1, len(quantum) + 1)):
            problems.append("quantum ranks are not 1..n")
        top = {r["y_id"] for r in quantum[:self.blobs]}
        if top != inst["true_names"]:
            problems.append(f"top {self.blobs} quantum candidates are not the true blobs")

        comparison = dict(line.split(": ", 1)
                          for line in (out / "comparison.txt").read_text().splitlines())
        if float(comparison.get("agreement_rate", "nan")) != 1.0:
            problems.append(f"agreement_rate {comparison.get('agreement_rate')}")
        truth = inst["truth"]
        if labels.shape != truth.shape or not _same_partition(labels, truth):
            problems.append("quantum labels do not reproduce the blobs")

        gaps = [abs(r["similarity"] - direct[r["y_id"]]) for r in quantum if r["y_id"] in direct]
        return problems, {"oracle_gap": max(gaps, default=0.0)}

    def cleanup(self, result):
        shutil.rmtree(result["out"], ignore_errors=True)

    def corruptions(self):
        def swap_candidate_labels(result):
            path = result["out"] / "similarity_ranking.csv"
            rows = csvio.read_ranking(path)
            quantum = [r for r in rows if r["method"] == "householder"]
            a = next(r for r in quantum if r["rank"] == self.blobs)
            b = next(r for r in quantum if r["rank"] == self.blobs + 1)
            a["y_id"], b["y_id"] = b["y_id"], a["y_id"]
            csvio.write_ranking(path, _reports(rows))
            return result

        def drop_agreement(result):
            path = result["out"] / "comparison.txt"
            path.write_text(path.read_text().replace("agreement_rate: 1.0", "agreement_rate: 0.9"))
            return result

        def relabel_point(result):
            path = result["out"] / "labels_quantum.csv"
            labels = csvio.read_labels(path)
            labels[0] = (labels[0] + 1) % self.blobs
            csvio.write_labels(path, labels)
            return result

        def nonzero_exit(result):
            return {**result, "rc": 2}

        return {"swapped candidate label": swap_candidate_labels,
                "lowered agreement_rate": drop_agreement,
                "relabelled point": relabel_point,
                "nonzero exit code": nonzero_exit}


def _reports(rows) -> list:
    return [readout.SimilarityReport(r["y_id"], r["similarity"], r["method"], r["rank"])
            for r in rows]


def _round_trip(path: Path, writer, rows) -> list[str]:
    copy = path.with_name(path.name + ".roundtrip")
    writer(copy, rows)
    same = filecmp.cmp(path, copy, shallow=False)
    copy.unlink()
    return [] if same else [f"{path.name} does not round-trip through csvio"]


def _same_partition(a, b) -> bool:
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


# ---------------------------------------------------------------------------
# wide_register: N=512, m=8, a register larger than one core's L2


class WideRegister(Workload):
    """make_evolution(H, m=8) plus four standard-Grover iterates at kappa=1
    on a random PSD H with N=512 and rank 128."""

    name = "wide_register"
    dim = 512
    rank = 128
    m = 8
    iterates = 4

    def make_inputs(self, seed: int, proc: int, workdir: Path):
        s = int(_rng(seed, proc).integers(2**31))
        H = random_psd_matrix(self.dim, self.rank, s)
        return {"H": H, "y": random_range_input(H, s + 1)}

    def run_op(self, inputs, i: int):
        evo = make_evolution(inputs["H"], m=self.m)
        cfg = PeaConfig(m=self.m, kappa=1.0, mode="biased", standard_grover=True)
        _, traj = amplify(cfg, evo, inputs["y"], max_iter=self.iterates, stop_tol=None)
        return {"trajectory": traj}

    def check(self, inputs, i: int, result):
        traj = result["trajectory"]
        if len(traj) != self.iterates + 1:
            return [f"{len(traj)} records, expected {self.iterates + 1}"], {}
        r = closed_form_residual(traj)
        problems = [] if r <= CLOSED_FORM_TOL else [f"closed-form residual {r:.3e}"]
        return problems, {"closed_form_residual": r}

    def corruptions(self):
        def scale_marked(result):
            traj = result["trajectory"]
            return {"trajectory": dataclasses.replace(traj, marked_prob=traj.marked_prob * 1.0001)}

        return {"scaled marked_prob": scale_marked}


WORKLOADS = {w.name: w for w in (TraceSweep(), RankCandidates(), WideRegister())}
