import io
import logging
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml

from qspectral import (cli, csvio, datasets, encoding, experiments, graph as graphmod, numerics,
                       qpea, readout)
from qspectral.classical import IndicatorVector
from qspectral.config import _YAML_LOADER, load_config
from qspectral.datasets import gaussian_blobs
from qspectral.experiments import figure_instance, trace_suite, write_traces


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BLOBS_YAML = """
seed: 3
dataset:
  kind: blobs
  sizes: [4, 4]
  centers: [[1.0, 0.0], [0.0, 1.0]]
  noise: 0.08
graph:
  kind: full
  sigma: 1.0
  squared_norm: true
target: gram
k: 2
pea:
  m: 6
  mode: biased
  kappa: 1.0
  standard_grover: true
amplify:
  max_iter: 40
  stop_tol: 0.05
"""


# the figure preset under the verbatim iterate
VERBATIM_YAML = "pea: {standard_grover: false}\n"


def write_config(tmp_path, text):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    return p


class TestConfig:
    def test_defaults_are_figure_preset(self):
        cfg = load_config()
        assert cfg.dataset.kind == "random_psd"
        assert cfg.dataset.dim == 16 and cfg.dataset.rank == 6
        assert cfg.pea.m == 6
        assert ("biased", 1.0) in cfg.runs and ("biased", 20.0) in cfg.runs

    def test_seed_and_out_override(self, tmp_path):
        p = write_config(tmp_path, "seed: 5\n")
        cfg = load_config(p, seed=9, out_dir="somewhere")
        assert cfg.seed == 9
        assert cfg.out_dir == "somewhere"

    def test_unknown_key_rejected(self, tmp_path):
        p = write_config(tmp_path, "bogus_key: 1\n")
        with pytest.raises(ValueError, match="bogus_key"):
            load_config(p)

    def test_repeated_candidate_member_refused(self, tmp_path):
        p = write_config(tmp_path, "candidates: [[0, 0, 1, 2, 3], [4, 5, 6, 7]]\n")
        with pytest.raises(ValueError, match=r"candidates group \[0, 0, 1, 2, 3\] repeats member 0"):
            load_config(p)

    def test_bad_values_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="pea.m"):
            load_config(write_config(tmp_path, "pea: {m: 0}\n"))
        with pytest.raises(ValueError, match="target"):
            load_config(write_config(tmp_path, "target: nonsense\n"))
        with pytest.raises(ValueError, match="max_iter"):
            load_config(write_config(tmp_path, "amplify: {max_iter: -2}\n"))

    def test_misspelled_run_keys_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path, "runs: [{mode: qft, kapa: 20.0}, {mdoe: qft, kappa: 1.0}]\n")
        with pytest.raises(ValueError, match=r"\['kapa'\]"):
            load_config(p)
        assert cli.main(["amplify-trace", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "kapa" in capsys.readouterr().err
        p = write_config(tmp_path, "runs: [{mdoe: qft, kappa: 1.0}]\n")
        with pytest.raises(ValueError, match=r"\['mdoe'\]"):
            load_config(p)
        for bad in ("[qft]", "[qft, 1.0, 5]", "qft"):
            with pytest.raises(ValueError, match=r"neither a mapping nor \[mode, kappa\]"):
                load_config(write_config(tmp_path, f"runs: [{bad}]\n"))
        cfg = load_config(write_config(tmp_path, "runs: [{mode: qft}, {kappa: 2.0}, [biased, 3]]\n"))
        assert cfg.runs == (("qft", 0.0), ("biased", 2.0), ("biased", 3.0))

    @pytest.mark.parametrize("text, key", [
        ("pea: {kappa: -1}", "pea.kappa"),
        ("pea: {mode: bogus}", "pea.mode"),
        ("runs: [{mode: bogus}]", "runs[0].mode"),
        ("runs: [{kappa: -1.0}]", "runs[0].kappa"),
        ("runs: [[qft, 0.0], [biased, -2]]", "runs[1].kappa"),
        ("graph: {sigma: 0}", "graph.sigma"),
        ("pea: {kappa: .nan}", "pea.kappa"),
        ("pea: {kappa: .inf}", "pea.kappa"),
        ("runs: [[biased, .nan]]", "runs[0].kappa"),
        ("runs: [[qft, 0.0], [biased, .inf]]", "runs[1].kappa"),
        ("graph: {sigma: .nan}", "graph.sigma"),
        ("graph: {eps: .inf}", "graph.eps"),
        ("dataset: {eig_min: 2.0}", "dataset.eig_min"),
        ("dataset: {kind: blobs, noise: -0.08}", "dataset.noise"),
        ("dataset: {kind: blobs, noise: .nan}", "dataset.noise"),
        ("candidates: []", "candidates"),
    ])
    def test_value_errors_name_the_field(self, tmp_path, capsys, text, key):
        p = write_config(tmp_path, text + "\n")
        with pytest.raises(ValueError, match=re.escape(key)):
            load_config(p)
        assert cli.main(["amplify-trace", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} ")

    def test_missing_pea_keys_keep_the_default_section(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "pea: {m: 8}\n"))
        assert cfg.pea == qpea.PeaConfig(m=8, kappa=1.0, mode="biased", standard_grover=True)

    @pytest.mark.parametrize("text, key", [
        ("runs: 5", "runs"),
        ("runs: null", "runs"),
        ("runs: [[qft, null]]", "runs kappa"),
        ("candidates: 5", "candidates"),
        ("candidates: [[0, 1], 3]", "candidates"),
        ("candidates: [[0, 1.5]]", "candidates member"),
        ("pea: {m: 2.5}", "pea.m"),
        ("pea: {m: true}", "pea.m"),
        ("pea: {kappa: true}", "pea.kappa"),
        ("amplify: {max_iter: 2.5}", "amplify.max_iter"),
        ("scrambled: 1.5", "scrambled"),
        ("dataset: {sizes: 5}", "dataset.sizes"),
        ("dataset: {sizes: [4, 0]}", "dataset.sizes"),
        ("dataset: {sizes: [4, 2.5]}", "dataset.sizes"),
        ("dataset: {centers: 5}", "dataset.centers"),
        ("dataset: {centers: [[1.0, 0.0]]}", "dataset.centers"),
        ("dataset: {centers: [[1.0, 0.0], [0.0]]}", "dataset.centers"),
        ("dataset: {centers: [[1.0, 0.0], [0.0, true]]}", "dataset.centers"),
        ("dataset: {eig_min: '5e-1'}", "dataset.eig_min"),  # quoted: text
    ])
    def test_wrong_type_is_an_error(self, tmp_path, capsys, text, key):
        p = write_config(tmp_path, text + "\n")
        with pytest.raises(ValueError, match=key):
            load_config(p)
        assert cli.main(["cluster-quantum", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} ")

    @pytest.mark.parametrize("verb, exponent, dotted", [
        ("amplify-trace", "dataset: {eig_min: 5e-1}", "dataset: {eig_min: 0.5}"),
        ("graph", "dataset: {kind: moons}\ngraph: {sigma: 1E0}",
         "dataset: {kind: moons}\ngraph: {sigma: 1.0}"),
    ], ids=["eig_min", "sigma"])
    def test_exponent_without_dot_is_a_float(self, tmp_path, verb, exponent, dotted):
        # YAML 1.1 reads such a literal as text; the config loader reads it as YAML 1.2 does
        outs = []
        for name, text in (("exponent", exponent), ("dotted", dotted)):
            out = tmp_path / name
            p = tmp_path / f"{name}.yaml"
            p.write_text(text + "\n")
            assert cli.main([verb, "--config", str(p), "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert yaml.load("x: 5e-1", Loader=_YAML_LOADER) == {"x": "5e-1"}  # base unchanged


class TestCmdGraph:
    def test_two_blob_eigengap(self, tmp_path):
        pts, _ = gaussian_blobs((6, 6), ((0.0, 0.0), (4.0, 0.0)), noise=0.2, seed=1)
        data = tmp_path / "points.csv"
        csvio.write_rows(data, ["x", "y"], pts.tolist())
        cfg_path = write_config(
            tmp_path,
            f"""
dataset: {{kind: csv, path: {data}}}
graph: {{kind: full, sigma: 1.3, squared_norm: true}}
target: laplacian
""",
        )
        out = tmp_path / "out"
        assert cli.main(["graph", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert int((out / "eigengap.txt").read_text().strip()) == 2
        W = csvio.read_matrix(out / "W.csv")
        assert W.shape == (12, 12)
        eigs = csvio.read_eigenvalues(out / "laplacian_eigs.csv")
        assert np.all(np.diff(eigs) >= -1e-12)

    def test_single_component_multiplicity(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        data = tmp_path / "points.csv"
        csvio.write_rows(data, ["x", "y"], pts.tolist())
        cfg_path = write_config(
            tmp_path, f"dataset: {{kind: csv, path: {data}}}\ngraph: {{kind: full, sigma: 1.0}}\n"
        )
        out = tmp_path / "out"
        assert cli.main(["graph", "--config", str(cfg_path), "--out", str(out)]) == 0
        eigs = csvio.read_eigenvalues(out / "laplacian_eigs.csv")
        assert np.sum(np.abs(eigs) < 1e-10) == 1

    def test_empty_file_errors(self, tmp_path):
        data = tmp_path / "points.csv"
        data.write_text("")
        cfg_path = write_config(tmp_path, f"dataset: {{kind: csv, path: {data}}}\n")
        assert cli.main(["graph", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


    @pytest.mark.parametrize("target", ["gram", "laplacian", "normalized_laplacian"])
    def test_spectrum_follows_variant_not_target(self, tmp_path, target):
        # graph reports the Laplacian the clustering verbs pick k on, whatever the target
        text = BLOBS_YAML.replace("target: gram", f"target: {target}") + "variant: normalized\n"
        cfg_path = write_config(tmp_path, text)
        cfg = load_config(cfg_path)
        g = experiments.build_graph(cfg, experiments.build_points(cfg))
        unnormalized = np.linalg.eigvalsh(graphmod.laplacian(g))
        normalized = np.linalg.eigvalsh(graphmod.normalized_laplacian(g))
        assert not np.allclose(unnormalized, normalized, atol=1e-6)
        out = tmp_path / "out"
        assert cli.main(["graph", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert np.allclose(csvio.read_eigenvalues(out / "laplacian_eigs.csv"), normalized,
                           atol=1e-12)

    @pytest.mark.parametrize("k", [1, 9])
    def test_k_out_of_range_refused_as_the_clustering_verbs_refuse_it(self, tmp_path, capsys, k):
        # 8 points: graph used to write a k that both clustering verbs refuse
        cfg_path = write_config(tmp_path, BLOBS_YAML.replace("k: 2", f"k: {k}"))
        for verb in ("graph", "cluster-classical", "cluster-quantum"):
            out = tmp_path / verb
            assert cli.main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
            assert f"k must satisfy 2 <= k <= N=8, got {k}" in capsys.readouterr().err
            assert not out.exists()

    def test_point_target_refused_on_random_psd(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "target: gram\n")  # the default random_psd dataset
        assert cli.main(["graph", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "dataset kind 'random_psd' does not provide points" in capsys.readouterr().err


MOONS_YAML = """
seed: 2
dataset: {kind: moons, n: 16, noise: 0.05}
target: laplacian
k: 2
"""


@pytest.mark.parametrize("kind, build", [
    ("full", lambda pts: graphmod.build_full_graph(pts, 1.0)),
    ("epsilon", lambda pts: graphmod.build_epsilon_graph(pts, 1.0)),
    ("knn", lambda pts: graphmod.build_knn_graph(pts, 3)),
])
def test_moons_graph_kinds(tmp_path, kind, build):
    # the moons points under each graph kind, at the default sigma, eps and k
    cfg_path = write_config(tmp_path, MOONS_YAML + f"graph: {{kind: {kind}}}\n")
    points, _ = datasets.two_moons(16, 0.05, seed=2)
    out = tmp_path / "out"
    assert cli.main(["graph", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert np.array_equal(csvio.read_matrix(out / "W.csv"), build(points).weights)
    assert cli.main(["cluster-classical", "--config", str(cfg_path), "--out", str(out)]) == 0
    labels = csvio.read_labels(out / "labels_classical.csv")
    assert labels.shape == (16,) and set(labels.tolist()) == {0, 1}


def test_auto_k_on_connected_moons(tmp_path):
    # the full moons graph is connected (Laplacian eigenvalues 0, 6.735, 7.934, ...):
    # k: auto selects two clusters, and graph reports the k the clustering verbs use
    auto = MOONS_YAML.replace("k: 2\n", "")
    out = tmp_path / "out"
    assert cli.main(["graph", "--config", str(write_config(tmp_path, auto)), "--out", str(out)]) == 0
    assert (out / "eigengap.txt").read_text() == "2\n"
    assert cli.main(["cluster-classical", "--config", str(write_config(tmp_path, auto)),
                     "--out", str(out)]) == 0
    assert set(csvio.read_labels(out / "labels_classical.csv").tolist()) == {0, 1}
    gram = auto.replace("target: laplacian", "target: gram") + "scrambled: 0\n"
    assert cli.main(["cluster-quantum", "--config", str(write_config(tmp_path, gram)),
                     "--out", str(out)]) == 0
    ranking = csvio.read_ranking(out / "similarity_ranking.csv")
    assert len([r for r in ranking if r["method"] == "householder"]) == 2
    assert set(csvio.read_labels(out / "labels_quantum.csv").tolist()) == {0, 1}
    assert (out / "comparison.txt").read_text().startswith("agreement_rate: 1.0\n")


# the normalized Laplacian variant on a laplacian target, with k: auto
NORMALIZED_MOONS_YAML = """
seed: 2
dataset: {kind: moons, n: 16, noise: 0.2}
target: laplacian
variant: normalized
"""


def test_graph_reports_the_k_cluster_classical_uses(tmp_path):
    # a laplacian target with the normalized variant: graph used to pick k = 3
    # on the target's unnormalized Laplacian, while cluster-classical picked k = 2
    cfg_path = write_config(tmp_path, NORMALIZED_MOONS_YAML)
    out = tmp_path / "out"
    assert cli.main(["graph", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["cluster-classical", "--config", str(cfg_path), "--out", str(out)]) == 0
    labels = csvio.read_labels(out / "labels_classical.csv")
    assert (out / "eigengap.txt").read_text() == "2\n"
    assert set(labels.tolist()) == {0, 1}


@pytest.mark.parametrize("variant", ["unnormalized", "normalized", "row_normalized"])
@pytest.mark.parametrize("verb", ["graph", "cluster-classical", "cluster-quantum"])
def test_one_laplacian_eigendecomposition(tmp_path, monkeypatch, verb, variant):
    # every solve that is not of the operator H is a solve of the Laplacian
    cfg_path = write_config(tmp_path, BLOBS_YAML + f"variant: {variant}\n")
    H, _ = experiments.build_operator(load_config(cfg_path))
    solves = []
    eig = numerics.hermitian_eig

    def counting(A, *args, **kwargs):
        if not (np.shape(A) == H.shape and np.array_equal(A, H)):
            solves.append(1)
        return eig(A, *args, **kwargs)

    monkeypatch.setattr(numerics, "hermitian_eig", counting)
    assert cli.main([verb, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(solves) == 1

class TestCmdClusterClassical:
    def test_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, BLOBS_YAML)
        out = tmp_path / "out"
        rc = cli.main(["cluster-classical", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        labels = csvio.read_labels(out / "labels_classical.csv")
        assert labels.shape == (8,)
        assert set(labels.tolist()) == {0, 1}
        # the two blobs separate perfectly
        assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
        objective = float((out / "objective.txt").read_text())
        assert objective >= 0.0
        trace_val = float((out / "trace_objective.txt").read_text())
        assert 0.0 <= trace_val <= 2.0 + 1e-9


class TestCmdAmplifyTrace:
    def test_files_and_columns(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["amplify-trace", "--seed", "0", "--out", str(out)])
        assert rc == 0
        for name in ("trajectory_qft_0.csv", "trajectory_biased_1.csv",
                     "trajectory_biased_20.csv", "summary.csv"):
            assert (out / name).exists(), name
        with open(out / "trajectory_qft_0.csv") as fh:
            header = fh.readline().strip()
        assert header == "iteration,success_prob,fidelity,qubit0_p0"
        traj = csvio.read_trajectory(out / "trajectory_biased_1.csv")
        assert traj["iteration"][0] == 0
        assert np.all((traj["fidelity"] >= 0.0) & (traj["fidelity"] <= 1.0 + 1e-9))

    def test_max_iter_zero_single_row(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "amplify: {max_iter: 0}\nruns: [{mode: qft, kappa: 0.0}]\n",
        )
        out = tmp_path / "out"
        rc = cli.main(["amplify-trace", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        traj = csvio.read_trajectory(out / "trajectory_qft_0.csv")
        assert traj["iteration"].tolist() == [0]

    def test_unreachable_overlap_window_is_an_error(self, tmp_path, capsys):
        # a full-rank operator leaves no null part: every input has overlap 1
        H = datasets.random_psd_matrix(16, 16, 0)
        with pytest.raises(ValueError, match=r"\[0\.25, 0\.9\].*MAX_TRIES = 10000.*overlap 1"):
            datasets.random_range_input(H, 10_007)
        p = write_config(tmp_path, "dataset: {kind: random_psd, dim: 16, rank: 16}\n")
        assert cli.main(["amplify-trace", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "MAX_TRIES" in capsys.readouterr().err

    def test_register_too_large_to_allocate_is_an_error(self, tmp_path, capsys):
        # 2^50 phase amplitudes are 16 PiB, past any user address space, so the
        # request fails at once and allocates nothing
        p = write_config(tmp_path, "pea: {m: 50}\n")
        assert cli.main(["amplify-trace", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_window_past_the_rejection_draws_is_reached(self, tmp_path):
        # no Gaussian draw reaches overlap 0.9999 onto the rank-6 range; the
        # split draw after them does
        H, V = datasets.random_psd_range(16, 6, 0)
        y = datasets.random_range_input(H, 10_007, (0.9999, 1.0))
        assert y.dtype == np.float64 and abs(np.linalg.norm(y) - 1.0) <= 1e-12
        assert 0.9999 <= np.linalg.norm(V.T @ y) ** 2 <= 1.0
        p = write_config(tmp_path, "overlap_min: 0.9999\noverlap_max: 1.0\n")
        assert cli.main(["amplify-trace", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("config", [None, BLOBS_YAML], ids=["preset", "blobs"])
    def test_one_eigendecomposition_of_operator(self, tmp_path, monkeypatch, config):
        # the input is drawn against the nonzero basis of the suite's operator
        cfg_path = None if config is None else write_config(tmp_path, config)
        H, _ = experiments.build_operator(load_config(cfg_path))
        solves = []
        eig = numerics.nonzero_eigh

        def counting(A, *args, **kwargs):
            solves.append(np.shape(A) == H.shape and np.array_equal(A, H))
            return eig(A, *args, **kwargs)

        monkeypatch.setattr(numerics, "nonzero_eigh", counting)
        args = ["amplify-trace", "--out", str(tmp_path / "out")]
        assert cli.main(args + ([] if cfg_path is None else ["--config", str(cfg_path)])) == 0
        assert solves == [True]

    def test_byte_identical_reruns(self, tmp_path):
        traces = ("trajectory_qft_0.csv", "trajectory_biased_1.csv", "trajectory_biased_20.csv",
                  "summary.csv")
        verbatim = write_config(tmp_path, VERBATIM_YAML)
        for i, (verb, args, names) in enumerate([
            ("amplify-trace", ["--seed", "7"], traces),
            ("amplify-trace", ["--config", str(CONFIGS / "figure_preset.yaml")], traces),
            ("amplify-trace", ["--config", str(verbatim)], traces),
            ("cluster-quantum", ["--config", str(CONFIGS / "two_blobs.yaml")],
             ("similarity_ranking.csv", "labels_quantum.csv", "comparison.txt")),
        ]):
            out1, out2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
            assert cli.main([verb, *args, "--out", str(out1)]) == 0
            assert cli.main([verb, *args, "--out", str(out2)]) == 0
            assert sorted(path.name for path in out1.iterdir()) == sorted(names)
            for name in names:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (verb, name)

    def test_colliding_labels_refused(self, tmp_path, capsys):
        # kappa 1 and 1.0 both label their run biased_1
        p = write_config(tmp_path, "runs: [{mode: biased, kappa: 1}, {mode: biased, kappa: 1.0}]\n")
        out = tmp_path / "out"
        assert cli.main(["amplify-trace", "--config", str(p), "--out", str(out)]) == 2
        assert "'biased_1'" in capsys.readouterr().err
        assert list(tmp_path.glob("**/trajectory_*.csv")) == []

    def test_huge_kappa_runs(self, tmp_path):
        # kappa**2 overflowed, and the label printed kappa's 301 digits into a file name
        p = write_config(tmp_path, "runs: [{mode: biased, kappa: 1.0e+300}]\n")
        out = tmp_path / "out"
        assert cli.main(["amplify-trace", "--config", str(p), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["summary.csv",
                                                               "trajectory_biased_1e+300.csv"]
        traj = csvio.read_trajectory(out / "trajectory_biased_1e+300.csv")
        assert np.all((traj["success_prob"] >= 0.0) & (traj["success_prob"] <= 1.0 + 1e-12))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_no_config_writes_the_figure_preset(self, tmp_path, seed):
        cli_out, script_out = tmp_path / "cli", tmp_path / "script"
        assert cli.main(["amplify-trace", "--seed", str(seed), "--out", str(cli_out)]) == 0
        write_traces(script_out, trace_suite(*figure_instance(seed)))
        names = sorted(path.name for path in script_out.iterdir())
        assert names == sorted(path.name for path in cli_out.iterdir())
        assert len(names) == 4
        for name in names:
            assert (cli_out / name).read_bytes() == (script_out / name).read_bytes(), name

    def test_verbatim_config_writes_the_verbatim_figure(self, tmp_path):
        # omitted keys keep the preset: the one line only swaps the iterate
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        cfg_path = write_config(tmp_path, VERBATIM_YAML)
        assert cli.main(["amplify-trace", "--config", str(cfg_path), "--out", str(cli_out)]) == 0
        paths = write_traces(lib_out, trace_suite(*figure_instance(0), standard_grover=False))
        assert sorted(path.name for path in cli_out.iterdir()) == sorted(p.name for p in paths)
        for path in paths:
            assert (cli_out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("config, rows", [
        (None, [("qft_0", "0.3461", "0.0742", "10"), ("biased_1", "0.0419", "0.1442", "5"),
                ("biased_20", "0.2517", "0.3030", "2")]),
        # the verbatim iterate is no rotation: it has no theta and no t*
        (VERBATIM_YAML, [("qft_0", "0.3461", "-", "-"), ("biased_1", "0.0419", "-", "-"),
                         ("biased_20", "0.2517", "-", "-")]),
    ], ids=["standard", "verbatim"])
    def test_verbose_line_per_run(self, tmp_path, capsys, config, rows):
        args = ["amplify-trace", "--verbose", "--out", str(tmp_path / "out")]
        if config is not None:
            args += ["--config", str(write_config(tmp_path, config))]
        assert cli.main(args) == 0
        prefix = "qspectral INFO "
        lines = [line.removeprefix(prefix) for line in capsys.readouterr().err.splitlines()
                 if line.startswith(prefix)]
        assert len(lines) == len(rows)
        for line, (label, success, theta, t_star) in zip(lines, rows):
            assert line.startswith(f"amplify-trace {label}: initial success {success}, ")
            assert line.endswith(f", theta {theta}, t* {t_star}")

    def test_stagnation_visible_in_summary(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "runs: [{mode: biased, kappa: 1.0}, {mode: biased, kappa: 8.0},"
            " {mode: biased, kappa: 20.0}]\namplify: {max_iter: 5}\n",
        )
        out = tmp_path / "out"
        assert cli.main(["amplify-trace", "--config", str(cfg_path), "--out", str(out)]) == 0
        traj8 = csvio.read_trajectory(out / "trajectory_biased_8.csv")
        deltas = np.abs(np.diff(traj8["success_prob"]))
        assert np.max(deltas) <= 0.02  # kappa = sqrt(64) stalls


class TestCmdClusterQuantum:
    def test_outputs_and_agreement(self, tmp_path):
        cfg_path = write_config(tmp_path, BLOBS_YAML)
        out = tmp_path / "out"
        rc = cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        ranking = csvio.read_ranking(out / "similarity_ranking.csv")
        hh = [r for r in ranking if r["method"] == "householder"]
        direct = [r for r in ranking if r["method"] == "direct"]
        assert len(hh) == len(direct) == 4  # 2 true + 2 scrambled
        # measured ordering matches the classical oracle ordering
        assert [r["y_id"] for r in sorted(hh, key=lambda r: r["rank"])] == [
            r["y_id"] for r in sorted(direct, key=lambda r: r["rank"])
        ]
        labels = csvio.read_labels(out / "labels_quantum.csv")
        assert labels.shape == (8,)
        comparison = (out / "comparison.txt").read_text()
        assert "agreement_rate: 1" in comparison or "agreement_rate: 1.0" in comparison
        assert "gate_count_estimate:" in comparison

    def test_auto_candidates_are_distinct(self, tmp_path):
        # seed 10's first scrambled draw is the true partition; it is drawn again
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(CONFIGS / "two_blobs.yaml"),
                         "--seed", "10", "--out", str(out)]) == 0
        ranking = csvio.read_ranking(out / "similarity_ranking.csv")
        for method in ("householder", "direct"):
            names = [r["y_id"] for r in ranking if r["method"] == method]
            assert len(set(names)) == len(names) == 4

    def test_singleton_clusters_have_no_scrambled_set(self, tmp_path, capsys):
        text = (CONFIGS / "two_blobs.yaml").read_text().replace("\nk: 2\n", "\nk: 8\n")
        cfg_path = write_config(tmp_path, text)
        assert cli.main(["cluster-quantum", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert "error: scrambled: " in capsys.readouterr().err

    def test_repeated_candidate_refused(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BLOBS_YAML + "candidates: [[0, 1, 2, 3], [3, 2, 1, 0], "
                                                     "[4, 5, 6, 7]]\n")
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "candidate ind_0-1-2-3 is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_candidate_member_refused(self, tmp_path, capsys):
        # the indicator would drop the repeat and rank ind_0-1-2-3 unasked
        text = BLOBS_YAML + "candidates: [[0, 0, 1, 2, 3], [4, 5, 6, 7]]\n"
        cfg_path, out = write_config(tmp_path, text), tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: candidates group [0, 0, 1, 2, 3] repeats member 0\n"
        assert not out.exists()

    def test_huge_kappa_runs(self, tmp_path):
        # kappa**2 overflowed from about 1.35e154 up; the bias norm squares nothing now
        cfg_path = write_config(tmp_path, BLOBS_YAML.replace("kappa: 1.0", "kappa: 1.0e+300"))
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 0
        ranking = csvio.read_ranking(out / "similarity_ranking.csv")
        assert len(ranking) == 8 and all(0.0 <= r["similarity"] <= 1.0 + 1e-12 for r in ranking)

    def test_explicit_candidates_label_by_best_rank(self, tmp_path):
        cfg_path = write_config(tmp_path, BLOBS_YAML + "candidates: [[0, 1, 2, 3], [0, 1, 4]]\n")
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 0
        ranking = csvio.read_ranking(out / "similarity_ranking.csv")
        rank = {r["y_id"]: r["rank"] for r in ranking if r["method"] == "householder"}
        labels = csvio.read_labels(out / "labels_quantum.csv")
        groups = {"ind_0-1-2-3": {0, 1, 2, 3}, "ind_0-1-4": {0, 1, 4}}
        for p in range(8):
            containing = [rank[name] for name, members in groups.items() if p in members]
            assert labels[p] == (min(containing) - 1 if containing else -1)
        assert "agreement_rate: not_applicable\n" in (out / "comparison.txt").read_text()

    def test_explicit_candidates_need_no_cluster_count(self, tmp_path, monkeypatch):
        # with explicit candidates k: auto is never resolved, so it cannot fail
        explicit = "candidates: [[0, 1, 2, 3], [4, 5, 6, 7]]\n"
        outputs = []
        for k in ("auto", "2"):
            cfg_path = write_config(tmp_path, BLOBS_YAML.replace("k: 2", f"k: {k}") + explicit)
            out = tmp_path / f"out_k{k}"
            assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("similarity_ranking.csv", "labels_quantum.csv", "comparison.txt")])
        assert outputs[0] == outputs[1]

        def refuse(*args, **kwargs):
            raise AssertionError("explicit candidates ran the classical clustering")

        monkeypatch.setattr(experiments, "laplacian_spectrum", refuse)
        assert cli.main(["cluster-quantum", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out_again")]) == 0

    def test_matrix_target_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--out", str(out)]) == 2
        assert "gram target only, got 'matrix'" in capsys.readouterr().err

    def test_amplify_config_passed_through(self, tmp_path, monkeypatch):
        # stop_tol: null and max_iter: 0 reach the ranking as configured
        seen = []
        rank = readout.rank_indicators

        def recording(*args, **kwargs):
            seen.append((kwargs["max_iter"], kwargs["stop_tol"]))
            return rank(*args, **kwargs)

        monkeypatch.setattr(readout, "rank_indicators", recording)
        text = BLOBS_YAML.replace("max_iter: 40", "max_iter: 0").replace("stop_tol: 0.05",
                                                                         "stop_tol: null")
        cfg_path = write_config(tmp_path, text)
        assert cli.main(["cluster-quantum", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 0
        assert seen == [(0, None)]

    def test_pea_section_passed_as_is(self, tmp_path, monkeypatch):
        seen = []
        run = readout.cluster_quantum

        def recording(H, candidates, cfg, **kwargs):
            seen.append(cfg)
            return run(H, candidates, cfg, **kwargs)

        monkeypatch.setattr(readout, "cluster_quantum", recording)
        cfg = load_config(write_config(tmp_path, BLOBS_YAML), out_dir=tmp_path / "out")
        cli.cmd_cluster_quantum(cfg)
        assert len(seen) == 1 and seen[0] is cfg.pea

    @pytest.mark.parametrize("centered", [False, True])
    def test_householder_terms_rebuild_the_operator(self, tmp_path, monkeypatch, centered):
        # the reported L is the length of the Householder sum of the feature
        # columns, under the operator's centering, and that sum rebuilds the
        # operator; a constant third feature centers to a zero column, which the
        # sum drops.  The ranking is stubbed: the centered Gram needs more than m = 6
        monkeypatch.setattr(readout, "cluster_quantum",
                            lambda H, cands, *a, **k: ([], [], np.full(H.shape[0], -1)))
        points, _ = gaussian_blobs((4, 4), ((1.0, 0.0), (0.0, 1.0)), noise=0.08, seed=3)
        data = tmp_path / "points.csv"
        csvio.write_rows(data, ["x", "y", "one"], np.column_stack([points, np.ones(8)]).tolist())
        csv = BLOBS_YAML.replace("kind: blobs", f"kind: csv\n  path: {data}")
        for text, terms in ((BLOBS_YAML, 2), (csv, 2 if centered else 3)):
            cfg = load_config(write_config(tmp_path, text + f"gram_centered: {centered}\n"),
                              out_dir=tmp_path / "out")
            H, points = experiments.build_operator(cfg)
            with warnings.catch_warnings(record=True):  # the dropped zero column
                hsum = encoding.householder_decompose(encoding.gram_columns(points, centered))
            assert np.max(np.abs(hsum.reconstruct() - H)) < 1e-10
            assert experiments.run_cluster_quantum(cfg).householder_terms == len(hsum) == terms
            cli.cmd_cluster_quantum(cfg)
            comparison = (tmp_path / "out" / "comparison.txt").read_text()
            assert f"householder_terms: {terms}\n" in comparison

    def test_one_eigendecomposition_of_operator(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, BLOBS_YAML)
        H, _ = experiments.build_operator(load_config(cfg_path))
        solves = []
        eig = numerics.nonzero_eigh

        def counting(A, *args, **kwargs):
            if np.shape(A) == H.shape and np.array_equal(A, H):
                solves.append(1)
            return eig(A, *args, **kwargs)

        monkeypatch.setattr(numerics, "nonzero_eigh", counting)
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(solves) == 1
        monkeypatch.undo()

        direct = [r for r in csvio.read_ranking(out / "similarity_ranking.csv")
                  if r["method"] == "direct"]
        members = [tuple(int(i) for i in r["y_id"][len("ind_"):].split("-")) for r in direct]
        oracle = [readout.direct_similarity(H, IndicatorVector(g, 8).vector()) for g in members]
        assert [csvio.fmt(r["similarity"]) for r in direct] == [csvio.fmt(v) for v in oracle]

    @pytest.mark.parametrize("target, gates, terms", [
        ("gram", "1024", "2"),  # two feature columns, N = 8, m = 6: 2^6 * 2 * 8 gates
    ])
    def test_gram_report_only_for_gram_target(self, tmp_path, target, gates, terms):
        cfg_path = write_config(tmp_path, BLOBS_YAML.replace("target: gram", f"target: {target}"))
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 0
        comparison = (out / "comparison.txt").read_text()
        assert f"gate_count_estimate: {gates}\n" in comparison
        assert f"householder_terms: {terms}\n" in comparison

    @pytest.mark.parametrize("target", ["laplacian", "normalized_laplacian"])
    def test_laplacian_target_refused(self, tmp_path, capsys, target):
        # its nonzero eigenspace scores every s-member candidate 1 - s/N, so a
        # ranking would be decided by the tie rule: nothing is written
        cfg_path = write_config(tmp_path, BLOBS_YAML.replace("target: gram", f"target: {target}"))
        out = tmp_path / "out"
        assert cli.main(["cluster-quantum", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"gram target only, got '{target}'" in capsys.readouterr().err
        assert not out.exists()


class TestSelftest:
    def test_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        output = capsys.readouterr().out
        for module in ("numerics", "graph", "classical", "encoding", "qpea", "readout"):
            assert f"PASS {module}" in output

    def test_fails_on_engine_without_marking(self, capsys, monkeypatch):
        # the iterate without R_mark keeps unit norm but leaves the two-plane rotation
        def no_marking(self, mat, a, W):
            return mat - 2.0 * np.vdot(a, mat) * a
        monkeypatch.setattr(qpea._Pipeline, "iterate", no_marking)
        assert cli.main(["selftest"]) == 1
        output = capsys.readouterr().out
        assert "FAIL qpea" in output
        assert "PASS readout" in output

    def test_fails_on_closed_form_wrong_after_first_iterate(self, capsys, monkeypatch):
        # closed-form fidelity rows that leave the rotation from iterate 2 on:
        # amplify's own check of iterate 1 still holds, so only the stepped
        # iterates can see it
        rotate = qpea._rotate

        def drifting(*args):  # _rotate reads a stack of inputs: drift every trajectory
            finals, trajs = rotate(*args)
            for traj in trajs:
                traj.fidelity[2:] *= 0.99
            return finals, trajs

        monkeypatch.setattr(qpea, "_rotate", drifting)
        assert cli.main(["selftest"]) == 1
        output = capsys.readouterr().out
        assert "FAIL qpea: exact phase read" in output  # a failed comparison, not an error
        assert "PASS readout" in output

    def test_raising_check_fails_only_its_module(self, capsys, monkeypatch):
        # a state that grows by 1% per iterate makes amplify raise on norm drift
        step = qpea._Pipeline.iterate
        monkeypatch.setattr(qpea._Pipeline, "iterate", lambda *args: 1.01 * step(*args))
        assert cli.main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS numerics", "PASS graph", "PASS classical", "PASS encoding", "FAIL qpea",
            "PASS readout"]
        assert lines[4].startswith("FAIL qpea: state norm 1.01")

    def test_fails_on_register_readout_off_its_phase_rows(self, capsys, monkeypatch):
        # the readout cluster-quantum ranks with, off by 1% from its row-by-row value
        similarities = readout._register_similarities
        monkeypatch.setattr(readout, "_register_similarities",
                            lambda *args: 1.01 * similarities(*args))
        assert cli.main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS numerics", "PASS graph", "PASS classical", "PASS encoding", "PASS qpea",
            "FAIL readout"]
        assert lines[5] == "FAIL readout: similarity identity, mixer separability"


class TestCsvRoundTrips:
    def test_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 6))
        csvio.write_matrix(tmp_path / "m.csv", A)
        assert np.array_equal(csvio.read_matrix(tmp_path / "m.csv"), A)

    def test_labels(self, tmp_path):
        labels = [2, 0, 1, 1]
        csvio.write_labels(tmp_path / "l.csv", labels)
        assert csvio.read_labels(tmp_path / "l.csv").tolist() == labels

    def test_eigenvalues(self, tmp_path):
        w = np.array([0.0, 0.5, 2.25])
        csvio.write_eigenvalues(tmp_path / "e.csv", w)
        assert np.array_equal(csvio.read_eigenvalues(tmp_path / "e.csv"), w)

    def test_points_roundtrip_through_graph_ingestion(self, tmp_path):
        from qspectral import load_points_csv

        pts = np.array([[0.5, 1.5], [2.5, 3.5]])
        csvio.write_rows(tmp_path / "p.csv", ["x", "y"], pts.tolist())
        assert np.array_equal(load_points_csv(tmp_path / "p.csv"), pts)

    def test_trajectory_of_an_amplify_run(self, tmp_path):
        H = datasets.random_psd_matrix(8, 3, seed=4)
        y = datasets.random_range_input(H, seed=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        _, traj = qpea.amplify(cfg, encoding.make_evolution(H, m=4), y, max_iter=12,
                               stop_tol=None)
        csvio.write_trajectory(tmp_path / "t.csv", traj)
        back = csvio.read_trajectory(tmp_path / "t.csv")
        assert list(back) == ["iteration", "success_prob", "fidelity", "qubit0_p0"]
        assert back["iteration"].dtype.kind == "i"
        for column, expected in [("iteration", traj.iterations),
                                 ("success_prob", traj.success_prob),
                                 ("fidelity", traj.fidelity), ("qubit0_p0", traj.qubit0_p0)]:
            assert np.array_equal(back[column], expected)

    def test_ranking_rewrites_the_same_bytes(self, tmp_path):
        points, _ = gaussian_blobs([4, 4], [[1.0, 0.0], [0.0, 1.0]], 0.08, seed=3)
        H = encoding.points_gram(points)
        candidates = [IndicatorVector(group, 8) for group in
                      [(0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7)]]
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        ranked, direct, _ = readout.cluster_quantum(H, candidates, cfg, max_iter=40)
        csvio.write_ranking(tmp_path / "first.csv", ranked + direct)
        reports = [readout.SimilarityReport(**row)
                   for row in csvio.read_ranking(tmp_path / "first.csv")]
        csvio.write_ranking(tmp_path / "second.csv", reports)
        assert len(reports) == 8
        assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


class TestParser:
    def test_built_once_and_keeps_no_state_between_calls(self, monkeypatch, capsys):
        # main parses with the parser built at import, and a call's --seed and
        # --out do not carry over into the next in-process call
        def refuse(*args, **kwargs):
            raise AssertionError("main built a parser")

        seen = []

        def stop(path, seed=None, out_dir=None):
            seen.append((path, seed, out_dir))
            raise ValueError("stop")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
        monkeypatch.setattr(cli, "load_config", stop)
        assert cli.main(["graph", "--config", "a.yaml", "--seed", "5", "--out", "first"]) == 2
        assert cli.main(["graph"]) == 2
        assert seen == [("a.yaml", 5, "first"), (None, None, None)]
        assert capsys.readouterr().err == "error: stop\nerror: stop\n"


class TestLogging:
    def test_each_call_logs_at_its_own_level_to_its_own_stderr(self, tmp_path):
        # logging.basicConfig set up the first call's stream and level only:
        # later calls logged into that stream, at its level, whatever their flag
        logger = logging.getLogger("qspectral")
        before = (logger.level, list(logger.handlers), logger.propagate)
        args = ["graph", "--config", str(CONFIGS / "two_blobs.yaml"), "--out", str(tmp_path)]
        streams = []
        for flags in (["--verbose"], ["--verbose"], []):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                assert cli.main(args + flags) == 0
            streams.append(err.getvalue())
        line = "qspectral INFO graph: N=8 kind=full selected k=2\n"
        assert streams == [line, line, ""]
        assert (logger.level, logger.handlers, logger.propagate) == before

    def test_root_handler_prints_no_second_copy(self, tmp_path):
        # records used to propagate to the root logger, so a caller's own
        # handler there (as logging.basicConfig sets up) printed each line again
        root = logging.getLogger()
        err = io.StringIO()
        handler = logging.StreamHandler(err)
        handler.setFormatter(logging.Formatter("root %(message)s"))
        root.addHandler(handler)
        args = ["graph", "--config", str(CONFIGS / "two_blobs.yaml"), "--out", str(tmp_path),
                "--verbose"]
        try:
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                assert cli.main(args) == 0
        finally:
            root.removeHandler(handler)
        assert err.getvalue() == "qspectral INFO graph: N=8 kind=full selected k=2\n"
        assert logging.getLogger("qspectral").propagate
