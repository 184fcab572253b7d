"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Criteria 1-3 share one seeded trajectory sweep, built once per module.
"""

import math
import time

import numpy as np
import pytest

from qspectral import classical, encoding, graph, numerics, qpea, readout
from qspectral.datasets import gaussian_blobs, scrambled_indicators
from qspectral.experiments import figure_instance, trace_suite

from dense_reference import marking_reflection, zero_reflection

N_SEEDS = 25
MAX_ITER = 150


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep():
    """Trajectories for qft / kappa=1 / kappa=20 plus the kappa=8 stall run."""
    t0 = time.perf_counter()
    runs = {}
    for seed in range(N_SEEDS):
        H, y = figure_instance(seed)
        evo = encoding.make_evolution(H, m=6)
        results = trace_suite(H, y, m=6, max_iter=MAX_ITER, standard_grover=True,
                              stop_tol=None, evo=evo)
        cfg8 = qpea.PeaConfig(m=6, kappa=8.0, mode="biased", standard_grover=True)
        _, stall = qpea.amplify(cfg8, evo, y, max_iter=1, stop_tol=None)
        runs[seed] = {
            "traces": {res.label: res.trajectory for res in results},
            "stall": stall,
            "H": H,
            "y": y,
        }
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_01_figure_shape(sweep):
    runs, elapsed = sweep
    ordering_ok = 0
    qft_fid_ok = 0
    for seed, data in runs.items():
        qft = data["traces"]["qft_0"]
        k1 = data["traces"]["biased_1"]
        k20 = data["traces"]["biased_20"]
        # the input respects the stated minimum overlap with range(H)
        _, amp = classical.projector_target(data["H"], data["y"])
        assert amp >= 0.1
        if qft.peak_fidelity >= 0.95:
            qft_fid_ok += 1
        first_q, first_1, first_20 = (
            qft.first_fidelity_peak(),
            k1.first_fidelity_peak(),
            k20.first_fidelity_peak(),
        )
        if first_20 <= 3 and first_20 < first_1 < first_q:
            ordering_ok += 1
    ok = (
        qft_fid_ok >= 0.9 * N_SEEDS
        and ordering_ok >= 0.9 * N_SEEDS
        and elapsed <= 60.0
    )
    assert report(
        "criterion 1 (figure shape)",
        ok,
        f"ordering kappa20<kappa1<qft with kappa20<=3 in {ordering_ok}/{N_SEEDS} seeds, "
        f"qft peak fidelity >= 0.95 in {qft_fid_ok}/{N_SEEDS}, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_02_stagnation(sweep):
    runs, _ = sweep
    deltas = [
        abs(data["stall"].success_prob[1] - data["stall"].success_prob[0])
        for data in runs.values()
    ]
    ok = max(deltas) <= 0.02
    assert report(
        "criterion 2 (stagnation at kappa = sqrt(M))",
        ok,
        f"max |success(1) - success(0)| = {max(deltas):.2e} <= 0.02 over {N_SEEDS} seeds",
    )


def test_criterion_03_output_state_fidelity(sweep):
    runs, _ = sweep
    worst = 1.0
    for data in runs.values():
        for traj in data["traces"].values():
            worst = min(worst, traj.peak_fidelity)
    ok = worst >= 0.99
    # verbatim iterate recorded for comparison (not gated)
    verbatim_peaks = []
    for seed in range(5):
        H, y = figure_instance(seed)
        results = trace_suite(H, y, m=6, max_iter=40, standard_grover=False, stop_tol=None)
        verbatim_peaks.append(max(res.trajectory.peak_fidelity for res in results))
    assert report(
        "criterion 3 (peak fidelity vs projected target)",
        ok,
        f"min peak fidelity {worst:.4f} >= 0.99 (standard variant); "
        f"verbatim-iterate peaks on 5 seeds: {[round(p, 3) for p in verbatim_peaks]}",
    )


def test_criterion_04_pea_exactness():
    m = 6
    exact_ok = True
    for target_bin in (1, 7, 21, 44, 62):
        H = np.diag([0.0, 1.0])
        evo = encoding.make_evolution(H, m=m, t=target_bin / 2**m)
        state = qpea.phase_estimation(qpea.PeaConfig(m=m, mode="qft"), evo,
                                      np.array([0.0, 1.0]))
        exact_ok &= state.phase_distribution()[target_bin] >= 1.0 - 1e-10
    modal_ok = True
    for offset in (0.2, 0.35, -0.3, 0.49):
        target_bin = 13
        phi = (target_bin + offset) / 2**m
        evo = encoding.make_evolution(np.diag([0.0, 1.0]), m=m, t=phi)
        state = qpea.phase_estimation(qpea.PeaConfig(m=m, mode="qft"), evo,
                                      np.array([0.0, 1.0]))
        modal_ok &= int(np.argmax(state.phase_distribution())) == target_bin
    ok = exact_ok and modal_ok
    assert report(
        "criterion 4 (PEA exactness)",
        ok,
        "exact phases read deterministically, inexact phases round to the nearest bin",
    )


def test_criterion_05_linearization_error():
    rng = np.random.default_rng(123)
    max_phase_err = 0.0
    max_ratio = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = (A + A.conj().T) / 2
        evo = encoding.make_evolution(H, m=6, backend="linearized")
        k = evo.scale
        nz = evo.nonzero_mask()
        if np.any(nz):
            err = np.max(np.abs(evo.eigenphases[nz] + evo.eigenvalues[nz] / (2 * np.pi * k)))
            max_phase_err = max(max_phase_err, float(err))
        max_ratio = max(max_ratio, float(np.max(np.abs(evo.eigenvalues)) / k))
    ok = max_phase_err <= 5.4e-5 and max_ratio <= 0.1 + 1e-12
    assert report(
        "criterion 5 (linearization error)",
        ok,
        f"max eigenphase error {max_phase_err:.2e} <= 5.4e-5, max |lambda|/k = {max_ratio:.4f} <= 0.1",
    )


def test_criterion_06_householder_roundtrip():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(40):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 17))
        X = rng.normal(size=(rows, cols)) * rng.uniform(0.1, 3.0)
        hs = encoding.householder_decompose(X)
        worst = max(worst, float(np.max(np.abs(hs.reconstruct() - encoding.gram_matrix(X)))))
    X = rng.normal(size=(12, 7))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    unit_coeffs = encoding.householder_decompose(X).coefficients
    ok = worst <= 1e-10 and np.max(np.abs(unit_coeffs - 1.0)) <= 1e-12
    assert report(
        "criterion 6 (Householder-sum round trip)",
        ok,
        f"max reconstruction error {worst:.2e} <= 1e-10; unit rows give unit coefficients",
    )


def _random_multi_component(seed):
    rng = np.random.default_rng(seed)
    n_comp = int(rng.integers(2, 5))
    sizes = rng.integers(2, 6, size=n_comp)
    n = int(sizes.sum())
    W = np.zeros((n, n))
    labels = np.zeros(n, dtype=int)
    start = 0
    for c, size in enumerate(sizes):
        idx = np.arange(start, start + int(size))
        labels[idx] = c
        for a, b in zip(idx[:-1], idx[1:]):
            W[a, b] = W[b, a] = 0.5 + rng.random()
        for _ in range(int(size)):
            a, b = rng.choice(idx, size=2, replace=False)
            W[a, b] = W[b, a] = 0.5 + rng.random()
        start += int(size)
    return graph.SimilarityGraph(W, "full", {}), labels, n_comp


def test_criterion_07_classical_oracle():
    recovered = 0
    for seed in range(50):
        g, truth, n_comp = _random_multi_component(seed)
        asg = classical.spectral_cluster(g, n_comp, "unnormalized", init=seed)
        pairs = {(int(a), int(b)) for a, b in zip(truth, asg.labels)}
        if len(pairs) == n_comp and len({b for _, b in pairs}) == n_comp:
            recovered += 1
    rng = np.random.default_rng(777)
    identity_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 17))
        k = int(rng.integers(1, max(2, n // 2)))
        Y, _ = np.linalg.qr(rng.normal(size=(n, k)))
        V, _ = np.linalg.qr(rng.normal(size=(n, k)))
        lhs = np.linalg.norm(V @ V.T - Y @ Y.T, "fro") ** 2
        rhs = 2 * k - 2 * classical.trace_objective(Y, V)
        identity_ok &= abs(lhs - rhs) <= 1e-10
    ok = recovered == 50 and identity_ok
    assert report(
        "criterion 7 (classical oracle)",
        ok,
        f"components recovered exactly in {recovered}/50 graphs; trace identity within 1e-10",
    )


def test_criterion_08_ranking_agreement():
    agreements = 0
    for seed in range(10):
        pts, labels = gaussian_blobs((4, 4), ((1.0, 0.0), (0.0, 1.0)), noise=0.08, seed=seed)
        H = encoding.points_gram(pts)
        true_inds = classical.indicators_from_labels(labels, 2)
        cands = true_inds + scrambled_indicators(true_inds, seed=seed + 100)
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        ranked = readout.rank_indicators(H, cands, cfg)
        by_name = {c.name: c.vector() for c in cands}
        oracle_order = sorted(
            by_name, key=lambda name: -readout.direct_similarity(H, by_name[name])
        )
        top2 = {ranked[0].y_id, ranked[1].y_id}
        if [r.y_id for r in ranked] == oracle_order and top2 == {i.name for i in true_inds}:
            agreements += 1
    ok = agreements == 10
    assert report(
        "criterion 8 (quantum-classical ranking agreement)",
        ok,
        f"true indicators ranked first and ordering matches the oracle in {agreements}/10 seeds",
    )


def test_criterion_09_operator_algebra():
    rng = np.random.default_rng(55)
    ok = True

    def involutory(R, tol=1e-10):
        eye = np.eye(R.shape[0])
        return (
            np.max(np.abs(R.conj().T @ R - eye)) <= tol
            and np.max(np.abs(R - R.conj().T)) <= tol
            and np.max(np.abs(R @ R - eye)) <= tol
        )

    for m in (1, 3, 6):
        for kappa in (0.0, 1.0, 8.0, 20.0):
            ok &= involutory(qpea.bias_reflection(m, kappa))
        ok &= involutory(marking_reflection(m))
        ok &= involutory(zero_reflection(m, 1))
    for dim in (2, 8, 16):
        y = rng.normal(size=dim)
        y /= np.linalg.norm(y)
        e0 = np.zeros(dim)
        e0[0] = 1.0
        w = y - e0
        if np.linalg.norm(w) > 1e-12:
            ok &= involutory(numerics.proj_reflection(w / np.linalg.norm(w)))
    mixer_ok = True
    for n in (1, 2, 4, 8):
        U = readout.x_sum_exponential(n)
        mixer_ok &= np.max(np.abs(U.conj().T @ U - np.eye(2**n))) <= 1e-12
        if n > 1:
            U1 = readout.x_sum_exponential(1)
            built = np.array([[1.0]], dtype=complex)
            for _ in range(n):
                built = np.kron(built, U1)
            mixer_ok &= np.max(np.abs(U - built)) <= 1e-12
    ok &= mixer_ok
    assert report(
        "criterion 9 (operator algebra)",
        ok,
        "all reflections unitary+Hermitian+involutory within 1e-10; "
        "X-sum exponential unitary and tensor-separable within 1e-12",
    )


def test_criterion_10_complexity_reporting():
    ok = True
    for m in (0, 2, 6, 8):
        for L in (1, 5, 10, 33):
            for N in (2, 16, 64, 100):
                ok &= encoding.gate_count_estimate(L, N, m) == (2**m) * L * N
                ok &= encoding.gate_count_estimate(L, N, m, simple_unitaries=True) == (
                    2**m
                ) * L * math.ceil(math.log2(N))
    assert report(
        "criterion 10 (complexity reporting)",
        ok,
        "gate counts equal 2^m*L*N and 2^m*L*ceil(log2 N) on the full grid",
    )
