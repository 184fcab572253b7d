import os
import subprocess
import sys

import numpy as np

from qspectral import config, csvio, experiments
from qspectral.config import load_config
from qspectral.datasets import random_psd_matrix, random_range_input
from test_golden import CONFIGS, GOLDEN, HERE, RTOL

SRC = HERE.parent / "src"


def test_figure_instance_follows_the_input_rule():
    # the instance draws y against the eigenbasis H was built from, not an
    # eigendecomposition of H; both give the same bits under the one rule
    for seed in range(500):
        H, y = experiments.figure_instance(seed)
        assert np.array_equal(H, random_psd_matrix(16, 6, seed, (0.3, 1.0)))
        assert np.array_equal(y, random_range_input(H, seed + 10_007, (0.25, 0.9))), seed


def test_config_does_not_import_the_pipeline():
    # config owns DEFAULT_RUNS; experiments imports config, not the other way
    code = "import sys, qspectral.config; print('qspectral.experiments' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout == "False\n"
    assert experiments.DEFAULT_RUNS is config.DEFAULT_RUNS


def close(actual, golden) -> bool:
    """The golden test's float rule, elementwise."""
    actual, golden = np.asarray(actual, dtype=float), np.asarray(golden, dtype=float)
    return actual.shape == golden.shape and bool(
        np.all(np.abs(actual - golden) <= RTOL * np.maximum(1.0, np.abs(golden))))


def test_classical_record_equals_the_golden_files():
    res = experiments.run_cluster_classical(load_config(CONFIGS / "two_blobs.yaml"))
    gold = GOLDEN / "cluster-classical_two_blobs"
    assert res.k == 2
    assert np.array_equal(res.labels, csvio.read_labels(gold / "labels_classical.csv"))
    assert close(res.objective, float((gold / "objective.txt").read_text()))
    assert close(res.trace_objective, float((gold / "trace_objective.txt").read_text()))


def test_quantum_record_equals_the_golden_files():
    res = experiments.run_cluster_quantum(load_config(CONFIGS / "two_blobs.yaml"))
    gold = GOLDEN / "cluster-quantum_two_blobs"
    ranking = csvio.read_ranking(gold / "similarity_ranking.csv")
    reports = res.ranked + res.direct
    assert [(r.y_id, r.method, r.rank) for r in reports] == [
        (row["y_id"], row["method"], row["rank"]) for row in ranking]
    assert close([r.similarity for r in reports], [row["similarity"] for row in ranking])
    assert np.array_equal(res.labels, csvio.read_labels(gold / "labels_quantum.csv"))
    comparison = dict(line.split(": ") for line in
                      (gold / "comparison.txt").read_text().splitlines())
    assert close(res.agreement, float(comparison["agreement_rate"]))
    assert res.gate_count_estimate == int(comparison["gate_count_estimate"])
    assert res.householder_terms == int(comparison["householder_terms"])


def test_trace_records_equal_the_golden_files():
    results = experiments.run_amplify_trace(load_config(CONFIGS / "figure_preset.yaml"))
    gold = GOLDEN / "amplify-trace_figure_preset"
    assert sorted(f"trajectory_{res.label}.csv" for res in results) == sorted(
        path.name for path in gold.glob("trajectory_*.csv"))
    for res in results:
        want = csvio.read_trajectory(gold / f"trajectory_{res.label}.csv")
        traj = res.trajectory
        assert np.array_equal(traj.iterations, want["iteration"])
        for column in ("success_prob", "fidelity", "qubit0_p0"):
            assert close(getattr(traj, column), want[column]), (res.label, column)


def test_trace_labels():
    # every integral kappa below 1e16 prints as an int; from there up the
    # float's short form keeps the file name short
    labels = [experiments.TraceResult(mode, kappa, None).label for mode, kappa in
              (("qft", 0.0), ("biased", 1.0), ("biased", 20.0), ("biased", 2.5),
               ("biased", 1e15), ("biased", 1e16), ("biased", 1.0e300))]
    assert labels == ["qft_0", "biased_1", "biased_20", "biased_2.5",
                      "biased_1000000000000000", "biased_1e+16", "biased_1e+300"]
