"""Command line: dataset ingestion, pipeline orchestration, file emission.

Verbs: ``graph``, ``cluster-classical``, ``amplify-trace``, ``cluster-quantum``
and ``selftest``.  Every command is deterministic given the configuration and
seed; all outputs are flat CSV/text files in the chosen directory.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import classical, csvio, datasets, encoding, graph as graphmod, numerics, qpea, readout
from .config import ExperimentConfig, load_config
from .experiments import trace_input, trace_suite, write_traces

log = logging.getLogger("qspectral")


# ---------------------------------------------------------------------------
# dataset materialization


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


def build_graph(cfg: ExperimentConfig, points):
    g = cfg.graph
    if g.kind == "full":
        return graphmod.build_full_graph(points, g.sigma, g.squared_norm)
    if g.kind == "epsilon":
        return graphmod.build_epsilon_graph(points, g.eps)
    return graphmod.build_knn_graph(points, g.k)


def _target_variant(cfg: ExperimentConfig) -> str:
    """The Laplacian variant the target names: ``normalized`` for
    ``normalized_laplacian``, ``unnormalized`` for every other target."""
    return "normalized" if cfg.target == "normalized_laplacian" else "unnormalized"


def build_operator(cfg: ExperimentConfig):
    """Hermitian operator fed to phase estimation, per the configured target,
    and the points it is built from (None for the ``matrix`` target)."""
    if cfg.target == "matrix":
        ds = cfg.dataset
        if ds.kind != "random_psd":
            raise ValueError("target 'matrix' requires the random_psd dataset")
        H = datasets.random_psd_matrix(ds.dim, ds.rank, cfg.seed, (ds.eig_min, ds.eig_max))
        return H, None
    points = build_points(cfg)
    if cfg.target == "gram":
        return encoding.points_gram(points, centered=cfg.gram_centered), points
    L = classical.laplacian_matrix(build_graph(cfg, points), _target_variant(cfg))
    return L, points


def select_k(cfg: ExperimentConfig, eigenvalues) -> int:
    """The configured cluster count, or the eigengap's pick for ``auto``;
    refused unless 2 <= k <= N, as every verb that clusters needs."""
    n = len(eigenvalues)
    k = int(cfg.k) if cfg.k != "auto" else classical.eigengap_select(eigenvalues, cfg.k_max)
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= N={n}, got {k}")
    return k


def _spectral_assignment(cfg: ExperimentConfig, points):
    """Laplacian eigenvectors, cluster count and classical spectral clustering
    of the points, for the configured graph and Laplacian variant."""
    w, V = classical.laplacian_eig(build_graph(cfg, points), cfg.variant)
    k = select_k(cfg, w)
    return V, k, classical.embedding_kmeans(V, k, cfg.variant, init=cfg.seed)


# ---------------------------------------------------------------------------
# commands


def cmd_graph(cfg: ExperimentConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    points = build_points(cfg)
    g = build_graph(cfg, points)
    w, _ = classical.laplacian_eig(g, cfg.variant)  # the spectrum the clustering verbs pick k on
    k = select_k(cfg, w)
    out.mkdir(parents=True, exist_ok=True)
    csvio.write_matrix(out / "W.csv", g.weights)
    csvio.write_eigenvalues(out / "laplacian_eigs.csv", w)
    (out / "eigengap.txt").write_text(f"{k}\n")
    log.info("graph: N=%d kind=%s selected k=%d", g.n, g.kind, k)
    return [out / "W.csv", out / "laplacian_eigs.csv", out / "eigengap.txt"]


def cmd_cluster_classical(cfg: ExperimentConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    points = build_points(cfg)
    V, k, assignment = _spectral_assignment(cfg, points)
    # clustering objective of the emitted labels on the input points
    centroids = np.vstack([points[assignment.labels == c].mean(axis=0) for c in range(k)])
    objective = float(np.sum((points - centroids[assignment.labels]) ** 2))
    indicators = classical.indicators_from_labels(assignment.labels, k)
    trace_val = classical.trace_objective(indicators, V[:, :k])
    out.mkdir(parents=True, exist_ok=True)
    csvio.write_labels(out / "labels_classical.csv", assignment.labels)
    (out / "objective.txt").write_text(f"{csvio.fmt(objective)}\n")
    (out / "trace_objective.txt").write_text(f"{csvio.fmt(trace_val)}\n")
    log.info("cluster-classical: k=%d objective=%.6g trace=%.6g", k, objective, trace_val)
    return [out / "labels_classical.csv", out / "objective.txt", out / "trace_objective.txt"]


def cmd_amplify_trace(cfg: ExperimentConfig) -> list[Path]:
    H, _ = build_operator(cfg)
    evo = encoding.make_evolution(H, cfg.pea.m)  # its nonzero basis is range(H): one eigh
    y = trace_input(evo.nonzero_basis, cfg.seed, (cfg.overlap_min, cfg.overlap_max))
    results = trace_suite(H, y, m=cfg.pea.m, runs=cfg.runs, max_iter=cfg.amplify.max_iter,
                          standard_grover=cfg.pea.standard_grover, stop_tol=cfg.amplify.stop_tol,
                          evo=evo)
    paths = write_traces(cfg.out_dir, results)
    for res in results:
        traj = res.trajectory
        # theta and t* describe the standard iterate's rotation; the verbatim one has none
        theta = "-" if traj.theta is None else f"{traj.theta:.4f}"
        t_star = "-" if traj.optimal_iterations is None else str(traj.optimal_iterations)
        log.info("amplify-trace %s: initial success %.4f, first peak %d, peak fidelity %.4f "
                 "at %d, theta %s, t* %s", res.label, traj.success_prob[0],
                 traj.first_fidelity_peak(), traj.peak_fidelity, traj.peak_fidelity_iteration,
                 theta, t_star)
    return paths


def cmd_cluster_quantum(cfg: ExperimentConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    # on a Laplacian the nonzero eigenspace scores every s-member indicator
    # 1 - s/N, so only the gram target ranks candidates by cluster content
    if cfg.target != "gram":
        raise ValueError(f"cluster-quantum ranks on the gram target only, got {cfg.target!r}")
    H, points = build_operator(cfg)
    n_points = points.shape[0]

    # only auto candidates (and the agreement with them) need the classical clustering
    if cfg.candidates == "auto":
        _, k, assignment = _spectral_assignment(cfg, points)
        true_inds = classical.indicators_from_labels(assignment.labels, k)
        candidates = list(true_inds)
        for s in range(cfg.scrambled):
            candidates.extend(datasets.scrambled_indicators(true_inds, cfg.seed + 31 * (s + 1),
                                                            candidates))
    else:
        candidates = [classical.IndicatorVector(tuple(group), n_points) for group in cfg.candidates]

    ranked, direct, labels_q = readout.cluster_quantum(
        H, candidates, cfg.pea, max_iter=cfg.amplify.max_iter, stop_tol=cfg.amplify.stop_tol
    )
    agreement = "not_applicable"  # explicit candidates have no classical clustering to agree with
    if cfg.candidates == "auto":  # each point's quantum candidate against its classical cluster
        quantum_names = np.array([r.y_id for r in ranked] + [""])  # label -1 reads ""
        true_names = np.array([ind.name for ind in true_inds])
        agreement = csvio.fmt(
            np.count_nonzero(quantum_names[labels_q] == true_names[assignment.labels]) / n_points)

    hsum = encoding.householder_decompose(encoding.gram_columns(points, cfg.gram_centered))
    gates = encoding.gate_count_estimate(len(hsum), H.shape[0], cfg.pea.m)

    out.mkdir(parents=True, exist_ok=True)
    csvio.write_ranking(out / "similarity_ranking.csv", ranked + direct)
    csvio.write_labels(out / "labels_quantum.csv", labels_q)
    (out / "comparison.txt").write_text(
        f"agreement_rate: {agreement}\n"
        f"gate_count_estimate: {gates}\n"
        f"householder_terms: {len(hsum)}\n"
    )
    log.info("cluster-quantum: %d candidates, agreement %s", len(candidates), agreement)
    return [out / "similarity_ranking.csv", out / "labels_quantum.csv", out / "comparison.txt"]


# ---------------------------------------------------------------------------
# selftest


def _check_numerics(rng) -> bool:
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    u /= np.linalg.norm(u)
    R = numerics.proj_reflection(u)
    ok = (
        numerics.is_unitary(R)
        and numerics.is_hermitian(R, 1e-10)
        and np.max(np.abs(R @ R - np.eye(8))) < 1e-10
    )
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    A = (A + A.conj().T) / 2
    w, V = numerics.hermitian_eig(A)
    return ok and np.max(np.abs((V * w) @ V.conj().T - A)) < 1e-10


def _check_graph(rng) -> bool:
    pts = rng.normal(size=(10, 2))
    g = graphmod.build_full_graph(pts, sigma=1.0)
    L = graphmod.laplacian(g)
    wL, _ = numerics.hermitian_eig(L)
    ok = np.max(np.abs(L.sum(axis=1))) < 1e-12 and wL[0] > -1e-10
    W2 = np.zeros((4, 4))
    W2[0, 1] = W2[1, 0] = W2[2, 3] = W2[3, 2] = 1.0
    wc, _ = numerics.hermitian_eig(graphmod.laplacian(W2))
    ok = ok and np.sum(np.abs(wc) < 1e-10) == 2
    return ok and len(set(graphmod.connected_components(W2))) == 2


def _check_classical(rng) -> bool:
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    asg = classical.kmeans(pts, 2, init=0)
    ok = abs(asg.objective - 1.0) < 1e-12
    ok = ok and all(b <= a + 1e-12 for a, b in zip(asg.objective_history, asg.objective_history[1:]))
    Q, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    P, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    lhs = np.linalg.norm(Q @ Q.T - P @ P.T, "fro") ** 2
    rhs = 2 * 3 - 2 * classical.trace_objective(P, Q)
    return ok and abs(lhs - rhs) < 1e-10


def _check_encoding(rng) -> bool:
    X = rng.normal(size=(6, 4))
    hs = encoding.householder_decompose(X)
    ok = np.max(np.abs(hs.reconstruct() - encoding.gram_matrix(X))) < 1e-10
    H = rng.normal(size=(8, 8))
    H = (H + H.T) / 2
    kdiv = encoding.make_evolution(H, m=4, backend="linearized").scale
    ok = ok and np.max(np.abs(np.linalg.eigvalsh(H))) / kdiv <= 0.1 + 1e-12
    evo = encoding.make_evolution(datasets.random_psd_matrix(8, 3, 5), m=4)
    return ok and numerics.is_unitary(evo.unitary)


def _check_qpea(rng) -> bool:
    lam = 0.5
    Hd = np.diag([0.0, lam])
    evo = encoding.make_evolution(Hd, m=2, t=0.5)
    cfg = qpea.PeaConfig(m=2, mode="qft")
    state = qpea.phase_estimation(cfg, evo, np.array([0.0, 1.0]))
    ok = abs(state.phase_distribution()[1] - 1.0) < 1e-10
    H = datasets.random_psd_matrix(4, 2, 11)
    evo = encoding.make_evolution(H, m=3)
    y = datasets.random_range_input(H, 11, (0.2, 0.95))
    cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
    steps = 20
    final, traj = qpea.amplify(cfg, evo, y, max_iter=steps, stop_tol=None)  # raises on norm drift
    # the closed form against the same iterates stepped one by one
    ref_final, ref = qpea.amplify_stepped(cfg, evo, y, max_iter=steps, stop_tol=None)
    gap = max(np.max(np.abs(getattr(traj, f) - getattr(ref, f)))
              for f in ("success_prob", "marked_prob", "fidelity", "qubit0_p0"))
    return ok and gap < 1e-9 and np.max(np.abs(final.amplitudes - ref_final.amplitudes)) < 1e-9


def _check_readout(rng) -> bool:
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    yv = rng.normal(size=8) + 1j * rng.normal(size=8)
    yv /= np.linalg.norm(yv)
    ok = abs(readout.householder_similarity(psi, yv) - abs(np.vdot(yv, psi)) ** 2) < 1e-12
    # the register readout of an estimation output, on the [V_nz, y_null] columns
    # amplify's states sit on, against its phase rows, read one by one; phase
    # estimation runs no iterate, so a faulty qpea iterate fails the qpea check only
    H = datasets.random_psd_matrix(8, 3, 5)
    y = datasets.random_range_input(H, 5)
    cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
    state = qpea.phase_estimation(cfg, encoding.make_evolution(H, m=3), y)
    expected = 0.0
    for row in state.amplitudes.reshape(2**state.m, 2**state.n):
        weight = np.vdot(row, row).real
        if weight > 0.0:
            expected += weight * readout.householder_similarity(row / np.sqrt(weight), y)
    ok = ok and abs(readout.register_similarity(state, y) - expected) < 1e-12
    mix = readout.x_sum_exponential(3)
    ok = ok and numerics.is_unitary(mix, 1e-12)
    single = readout.x_sum_exponential(1)
    return ok and np.max(np.abs(mix - np.kron(np.kron(single, single), single))) < 1e-12


_SELFTESTS = (  # module, what its check covers, the check
    ("numerics", "reflection algebra, eig reconstruction", _check_numerics),
    ("graph", "row sums, PSD, component multiplicity", _check_graph),
    ("classical", "k-means objective, trace identity", _check_classical),
    ("encoding", "round trip, linearize bound, unitarity", _check_encoding),
    ("qpea", "exact phase read, closed form vs 20 stepped iterates", _check_qpea),
    ("readout", "similarity identity, mixer separability", _check_readout),
)


def cmd_selftest(cfg: ExperimentConfig) -> int:
    """Run every module check on one seeded generator; a check that raises
    fails with its message and the others still run."""
    rng = np.random.default_rng(7)
    failures = 0
    for module, detail, check in _SELFTESTS:
        try:
            ok = bool(check(rng))
        except Exception as exc:  # any error is this module's failure
            ok, detail = False, str(exc)
        print(f"{'PASS' if ok else 'FAIL'} {module}: {detail}")
        failures += not ok
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qspectral",
                                     description="spectral clustering via biased phase estimation")
    parser.add_argument("command", choices=[
        "graph", "cluster-classical", "amplify-trace", "cluster-quantum", "selftest",
    ])
    parser.add_argument("--config", type=str, default=None, help="YAML configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--verbose", action="store_true")
    return parser


PARSER = _parser()  # built once; each parse_args call returns a fresh namespace
_LOG_FORMAT = logging.Formatter("%(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # this call's level and stderr, on the package logger only (records stop
    # there, so a handler the caller set on the root logger prints none of
    # them a second time); restored on return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LOG_FORMAT)
    level, propagate = log.level, log.propagate
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.addHandler(handler)
    log.propagate = False
    commands = {
        "graph": cmd_graph,
        "cluster-classical": cmd_cluster_classical,
        "amplify-trace": cmd_amplify_trace,
        "cluster-quantum": cmd_cluster_quantum,
    }
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        if args.command == "selftest":
            return cmd_selftest(cfg)
        paths = commands[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
        log.propagate = propagate
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
