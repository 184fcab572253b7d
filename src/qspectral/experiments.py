"""Seeded experiment presets shared by the command line, the scripts, and the
acceptance suite: the rank-deficient figure instance and trajectory sweeps
over estimation modes and bias values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datasets import random_psd_matrix, random_range_input
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
    the nonzero eigenspace lies in (0.25, 0.9).
    """
    H = random_psd_matrix(16, 6, seed, (0.3, 1.0))
    y = random_range_input(H, seed + 10_007, (0.25, 0.9))
    return H, y


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


def summary_rows(results: list[TraceResult]) -> list[tuple]:
    """Per-run summary: initial success, first/peak fidelity iterations."""
    rows = []
    for res in results:
        traj = res.trajectory
        rows.append(
            (
                res.mode,
                float(res.kappa),
                float(traj.success_prob[0]),
                int(traj.first_fidelity_peak()),
                int(traj.peak_fidelity_iteration),
                float(traj.peak_fidelity),
                -1 if traj.stopped_at is None else int(traj.stopped_at),
            )
        )
    return rows


SUMMARY_HEADER = [
    "mode",
    "kappa",
    "initial_success_prob",
    "first_peak_iteration",
    "peak_fidelity_iteration",
    "peak_fidelity",
    "stopped_at",
]
