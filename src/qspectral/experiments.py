"""The verbs' pipelines and seeded experiment presets, shared by the command
line, the benchmark, and the acceptance suite: each verb's result for a
configuration, the rank-deficient figure instance, trajectory sweeps over
estimation modes and bias values, and the files a sweep is written to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classical, csvio, datasets, encoding, graph as graphmod, readout
from .config import DEFAULT_RUNS, ExperimentConfig
from .encoding import EvolutionOperator, make_evolution
from .qpea import PeaConfig, Trajectory, amplify_many


@dataclass(frozen=True)
class TraceResult:
    mode: str
    kappa: float
    trajectory: Trajectory

    @property
    def label(self) -> str:  # an integral kappa from 1e16 up keeps its short form, 1e+16
        whole = float(self.kappa).is_integer() and self.kappa < 1e16
        return f"{self.mode}_{int(self.kappa) if whole else self.kappa}"


@dataclass(frozen=True)
class ClassicalResult:
    """Spectral clustering's labels and k, with the labels' k-means and trace objectives."""

    labels: np.ndarray
    k: int
    objective: float
    trace_objective: float


@dataclass(frozen=True)
class QuantumResult:
    """The rankings and labels of :func:`~qspectral.readout.cluster_quantum`, the labels'
    agreement with the classical clusters (None for explicit candidates), L and 2^m L N."""

    ranked: tuple[readout.SimilarityReport, ...]
    direct: tuple[readout.SimilarityReport, ...]
    labels: np.ndarray
    agreement: float | None
    householder_terms: int
    gate_count_estimate: int


def build_points(cfg: ExperimentConfig) -> np.ndarray:
    """Point set of the configured dataset."""
    ds = cfg.dataset
    if ds.kind == "blobs":
        return datasets.gaussian_blobs(ds.sizes, ds.centers, ds.noise, cfg.seed)[0]
    if ds.kind == "moons":
        return datasets.two_moons(ds.n, ds.noise, cfg.seed)[0]
    if ds.kind == "csv":
        return graphmod.load_points_csv(ds.path)
    raise ValueError(f"dataset kind {ds.kind!r} does not provide points")


def build_graph(cfg: ExperimentConfig, points) -> graphmod.SimilarityGraph:
    """The configured similarity graph on the points."""
    g = cfg.graph
    if g.kind == "full":
        return graphmod.build_full_graph(points, g.sigma, g.squared_norm)
    if g.kind == "epsilon":
        return graphmod.build_epsilon_graph(points, g.eps)
    return graphmod.build_knn_graph(points, g.k)


def build_operator(cfg: ExperimentConfig):
    """Hermitian operator fed to phase estimation, per the configured target
    (a Laplacian target names its variant), and the points it is built from
    (None for the ``matrix`` target)."""
    if cfg.target == "matrix":
        ds = cfg.dataset
        if ds.kind != "random_psd":
            raise ValueError("target 'matrix' requires the random_psd dataset")
        return datasets.random_psd_matrix(ds.dim, ds.rank, cfg.seed, (ds.eig_min, ds.eig_max)), None
    points = build_points(cfg)
    if cfg.target == "gram":
        return encoding.points_gram(points, centered=cfg.gram_centered), points
    variant = "normalized" if cfg.target == "normalized_laplacian" else "unnormalized"
    return classical.laplacian_matrix(build_graph(cfg, points), variant), points


def laplacian_spectrum(cfg: ExperimentConfig, g):
    """The configured variant's Laplacian eigenpairs of g and the k picked on
    them: the one spectrum every verb that reports or uses k reads."""
    w, V = classical.laplacian_eig(g, cfg.variant)
    return w, V, classical.select_k(w, cfg.k, cfg.k_max)


def run_graph(cfg: ExperimentConfig):
    """The ``graph`` verb: the graph, its Laplacian eigenvalues and k."""
    g = build_graph(cfg, build_points(cfg))
    w, _, k = laplacian_spectrum(cfg, g)
    return g, w, k


def _spectral_labels(cfg: ExperimentConfig, points):
    """Laplacian eigenvectors, k, and the k-means labels of their embedding."""
    _, V, k = laplacian_spectrum(cfg, build_graph(cfg, points))
    return V, k, classical.embedding_kmeans(V, k, cfg.variant, init=cfg.seed).labels


def run_cluster_classical(cfg: ExperimentConfig) -> ClassicalResult:
    """The ``cluster-classical`` verb: spectral clustering of the points."""
    points = build_points(cfg)
    V, k, labels = _spectral_labels(cfg, points)
    centroids = np.vstack([points[labels == c].mean(axis=0) for c in range(k)])
    objective = float(np.sum((points - centroids[labels]) ** 2))
    trace = classical.trace_objective(classical.indicators_from_labels(labels, k), V[:, :k])
    return ClassicalResult(labels, k, objective, trace)


def run_amplify_trace(cfg: ExperimentConfig) -> list[TraceResult]:
    """The ``amplify-trace`` verb: each configured run's trajectory on the
    operator, from the seed's input drawn against its range."""
    H, _ = build_operator(cfg)
    evo = make_evolution(H, cfg.pea.m)  # its nonzero basis is range(H): one eigh
    y = trace_input(evo.nonzero_basis, cfg.seed, (cfg.overlap_min, cfg.overlap_max))
    return trace_suite(H, y, m=cfg.pea.m, runs=cfg.runs, max_iter=cfg.amplify.max_iter,
                       standard_grover=cfg.pea.standard_grover, stop_tol=cfg.amplify.stop_tol,
                       evo=evo)


def run_cluster_quantum(cfg: ExperimentConfig) -> QuantumResult:
    """The ``cluster-quantum`` verb: the candidates ranked on the Gram operator;
    auto candidates are the classical clusters and scrambled sets of them."""
    # on a Laplacian the nonzero eigenspace scores every s-member indicator
    # 1 - s/N, so only the gram target ranks candidates by cluster content
    if cfg.target != "gram":
        raise ValueError(f"cluster-quantum ranks on the gram target only, got {cfg.target!r}")
    H, points = build_operator(cfg)
    n = points.shape[0]
    if cfg.candidates == "auto":  # only these and their agreement need the clustering
        _, k, clusters = _spectral_labels(cfg, points)
        true_inds = classical.indicators_from_labels(clusters, k)
        candidates = list(true_inds)
        for s in range(cfg.scrambled):
            candidates.extend(datasets.scrambled_indicators(true_inds, cfg.seed + 31 * (s + 1),
                                                            candidates))
    else:
        candidates = [classical.IndicatorVector(group, n) for group in cfg.candidates]
    ranked, direct, labels = readout.cluster_quantum(
        H, candidates, cfg.pea, max_iter=cfg.amplify.max_iter, stop_tol=cfg.amplify.stop_tol)
    agreement = None
    if cfg.candidates == "auto":  # each point's quantum candidate against its classical cluster
        quantum_names = np.array([r.y_id for r in ranked] + [""])  # label -1 reads ""
        true_names = np.array([ind.name for ind in true_inds])
        agreement = np.count_nonzero(quantum_names[labels] == true_names[clusters]) / n
    # L: the feature columns householder_decompose keeps, those of nonzero norm
    terms = int(np.count_nonzero(
        np.linalg.norm(encoding.gram_columns(points, cfg.gram_centered), axis=1) > 0.0))
    return QuantumResult(tuple(ranked), tuple(direct), labels, agreement, terms,
                         encoding.gate_count_estimate(terms, n, cfg.pea.m))


def figure_instance(seed: int):
    """Seeded (H, y) pair for the trajectory experiments.

    H is a random 16 x 16 PSD matrix of rank 6 with nonzero eigenvalues drawn
    from (0.3, 1); y is a random real unit input whose squared overlap onto
    the nonzero eigenspace lies in (0.25, 0.9), drawn against the eigenbasis
    H was built from, so that H is not diagonalized here.
    """
    H, V = datasets.random_psd_range(16, 6, seed, (0.3, 1.0))
    return H, trace_input(V, seed)


def trace_input(V, seed: int, overlap_sq=(0.25, 0.9)):
    """The trajectory experiments' input under ``seed`` for an operator whose
    range has the orthonormal columns V: a random real unit vector whose
    squared overlap onto range(H) lies in ``overlap_sq``."""
    return datasets.range_input(V, seed + 10_007, overlap_sq)


def trace_suite(H, y, m: int = 6, runs=DEFAULT_RUNS, max_iter: int = 40,
                standard_grover: bool = True, stop_tol: float | None = None,
                evo: EvolutionOperator | None = None) -> list[TraceResult]:
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
