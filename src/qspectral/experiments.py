"""Seeded experiment presets shared by the command line, the benchmark, and the
acceptance suite: the rank-deficient figure instance, trajectory sweeps over
estimation modes and bias values, and the files a sweep is written to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import csvio
from .datasets import random_psd_range, range_input
from .encoding import EvolutionOperator, make_evolution
from .qpea import PeaConfig, Trajectory, amplify_many

# (mode, kappa) runs matching the published trajectory sweep
DEFAULT_RUNS: tuple[tuple[str, float], ...] = (("qft", 0.0), ("biased", 1.0), ("biased", 20.0))


@dataclass(frozen=True)
class TraceResult:
    mode: str
    kappa: float
    trajectory: Trajectory

    @property
    def label(self) -> str:
        kap = int(self.kappa) if float(self.kappa).is_integer() else self.kappa
        return f"{self.mode}_{kap}"


def figure_instance(seed: int):
    """Seeded (H, y) pair for the trajectory experiments.

    H is a random 16 x 16 PSD matrix of rank 6 with nonzero eigenvalues drawn
    from (0.3, 1); y is a random real unit input whose squared overlap onto
    the nonzero eigenspace lies in (0.25, 0.9), drawn against the eigenbasis
    H was built from, so that H is not diagonalized here.
    """
    H, V = random_psd_range(16, 6, seed, (0.3, 1.0))
    return H, trace_input(V, seed)


def trace_input(V, seed: int, overlap_sq=(0.25, 0.9)):
    """The trajectory experiments' input under ``seed`` for an operator whose
    range has the orthonormal columns V: a random real unit vector whose
    squared overlap onto range(H) lies in ``overlap_sq``."""
    return range_input(V, seed + 10_007, overlap_sq)


def trace_suite(
    H,
    y,
    m: int = 6,
    runs=DEFAULT_RUNS,
    max_iter: int = 40,
    standard_grover: bool = True,
    stop_tol: float | None = None,
    evo: EvolutionOperator | None = None,
) -> list[TraceResult]:
    """Amplification trajectories for each (mode, kappa) run on one instance.

    The runs differ only in their phase gate, so they are one
    :func:`~qspectral.qpea.amplify_many` call with one config per run: y is
    loaded and checked once, and the standard iterate reads every run in one
    closed form.
    """
    if evo is None:
        evo = make_evolution(H, m)
    cfgs = [PeaConfig(m=m, kappa=float(kappa), mode=mode, standard_grover=standard_grover)
            for mode, kappa in runs]
    out = amplify_many(cfgs, evo, [y] * len(cfgs), max_iter=max_iter, stop_tol=stop_tol)
    return [TraceResult(cfg.mode, cfg.kappa, traj) for cfg, (_, traj) in zip(cfgs, out)]


_SUMMARY_HEADER = ("mode", "kappa", "initial_success_prob", "first_peak_iteration",
                   "peak_fidelity_iteration", "peak_fidelity", "stopped_at")


def write_traces(out, results: list[TraceResult]) -> list[Path]:
    """Write ``trajectory_<label>.csv`` per run and ``summary.csv`` into ``out``.

    Runs whose labels collide would overwrite each other's file, so they are
    refused before any file is written.
    """
    labels = [res.label for res in results]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"runs share the trajectory label {label!r}; "
                             f"give each run a distinct (mode, kappa)")
    out = Path(out)
    paths = [out / f"trajectory_{label}.csv" for label in labels]
    rows = []
    for path, res in zip(paths, results):
        traj = res.trajectory
        csvio.write_trajectory(path, traj)
        stopped_at = -1 if traj.stopped_at is None else int(traj.stopped_at)
        rows.append((res.mode, float(res.kappa), float(traj.success_prob[0]),
                     int(traj.first_fidelity_peak()), int(traj.peak_fidelity_iteration),
                     float(traj.peak_fidelity), stopped_at))
    csvio.write_rows(out / "summary.csv", _SUMMARY_HEADER, rows)
    return paths + [out / "summary.csv"]
