import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectral import classical, graph, numerics
from qspectral.datasets import gaussian_blobs, two_moons
from qspectral.errors import DegenerateTargetError


def partitions_equal(a, b) -> bool:
    """True when two label arrays induce the same partition."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    mapping = {}
    for x, y in zip(a, b):
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def random_orthonormal(n, k, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return Q


class TestKmeans:
    def test_separable_1d(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        asg = classical.kmeans(pts, 2, init=0)
        assert partitions_equal(asg.labels, [0, 0, 1, 1])
        assert sorted(asg.centroids.ravel().tolist()) == [0.5, 10.5]
        assert asg.objective == pytest.approx(1.0)

    def test_k_equals_n(self):
        pts = np.array([[0.0], [1.0], [5.0]])
        asg = classical.kmeans(pts, 3, init=0)
        assert asg.objective == pytest.approx(0.0, abs=1e-15)

    def test_k_one_returns_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 3))
        asg = classical.kmeans(pts, 1, init=0)
        assert np.allclose(asg.centroids[0], pts.mean(axis=0))

    def test_explicit_centroids(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        asg = classical.kmeans(pts, 2, init=np.array([[0.0], [10.0]]))
        assert partitions_equal(asg.labels, [0, 0, 1, 1])

    def test_empty_cluster_reseeded(self):
        pts = np.array([[0.0], [0.1], [0.2], [5.0]])
        # both initial centroids on the left; cluster 1 empties immediately
        asg = classical.kmeans(pts, 2, init=np.array([[0.0], [100.0]]))
        assert asg.reseeds  # event recorded
        assert partitions_equal(asg.labels, [0, 0, 0, 1])

    def test_rejects_bad_k(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="k must"):
            classical.kmeans(pts, 3)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24), k=st.integers(1, 4))
    def test_objective_monotone(self, seed, n, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        asg = classical.kmeans(pts, min(k, n), init=seed)
        hist = asg.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        assert asg.objective == pytest.approx(hist[-1])


class TestEigengap:
    def test_dominant_gap(self):
        assert classical.eigengap_select([0.0, 0.01, 0.02, 5.0, 5.1], k_max=8) == 3

    def test_all_equal_tie_break(self):
        assert classical.eigengap_select([1.0, 1.0, 1.0, 1.0], k_max=8) == 2

    def test_two_zeros(self):
        assert classical.eigengap_select([0.0, 0.0, 3.0], k_max=8) == 2

    def test_k_max_bounds_search(self):
        # largest gap sits at k=3 but search stops below min(k_max, len)
        assert classical.eigengap_select([0.0, 0.2, 0.21, 5.0], k_max=3) == 2

    def test_connected_graph_gets_two_clusters(self):
        # the spectral gap of a connected graph (k = 1) is not a cluster count
        assert classical.eigengap_select([0.0, 6.7, 7.9, 8.0], k_max=8) == 2

    @pytest.mark.parametrize("eigenvalues", [[], [0.0], [0.0, 1.0]])
    def test_empty_search_range_gives_two(self, eigenvalues):
        assert classical.eigengap_select(eigenvalues, k_max=8) == 2


class TestSpectralCluster:
    def test_two_disjoint_cliques(self):
        W = np.zeros((6, 6))
        W[np.ix_([0, 1, 2], [0, 1, 2])] = 1.0
        W[np.ix_([3, 4, 5], [3, 4, 5])] = 1.0
        np.fill_diagonal(W, 0.0)
        g = graph.SimilarityGraph(W, "full", {})
        for variant in ("unnormalized", "normalized", "row_normalized"):
            asg = classical.spectral_cluster(g, 2, variant)
            assert partitions_equal(asg.labels, [0, 0, 0, 1, 1, 1]), variant

    def test_two_blobs_full_graph(self):
        spacing = 3.0
        pts, truth = gaussian_blobs((8, 8), ((0.0, 0.0), (spacing, 0.0)), noise=0.25, seed=42)
        g = graph.build_full_graph(pts, sigma=spacing / 3.0, squared_norm=True)
        asg = classical.spectral_cluster(g, 2, "normalized")
        assert partitions_equal(asg.labels, truth)

    def test_components_become_clusters(self):
        W = np.zeros((7, 7))
        for a, b in [(0, 1), (1, 2), (3, 4), (5, 6)]:
            W[a, b] = W[b, a] = 1.0
        g = graph.SimilarityGraph(W, "full", {})
        asg = classical.spectral_cluster(g, 3, "unnormalized")
        assert partitions_equal(asg.labels, graph.connected_components(g))


class TestLaplacianEig:
    @pytest.fixture
    def blobs_graph(self):
        pts, _ = gaussian_blobs((6, 6), ((0.0, 0.0), (2.0, 0.0)), noise=0.4, seed=7)
        return graph.build_full_graph(pts, sigma=1.0, squared_norm=True)

    @pytest.mark.parametrize("variant, build", [
        ("unnormalized", graph.laplacian),
        ("normalized", graph.normalized_laplacian),
        ("row_normalized", graph.normalized_laplacian),
    ])
    def test_spectral_cluster_is_embedding_kmeans(self, blobs_graph, variant, build):
        w, V = classical.laplacian_eig(blobs_graph, variant)
        assert np.allclose(w, np.linalg.eigvalsh(build(blobs_graph)), atol=1e-12)
        for init in (0, 3):
            asg = classical.spectral_cluster(blobs_graph, 2, variant, init=init)
            emb = classical.embedding_kmeans(V, 2, variant, init=init)
            assert np.array_equal(asg.labels, emb.labels)

    def test_unknown_variant_rejected_before_eig(self, blobs_graph, monkeypatch):
        solves = []
        monkeypatch.setattr(numerics, "hermitian_eig", lambda *args: solves.append(1))
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            classical.laplacian_eig(blobs_graph, "bogus")
        assert solves == []

    def test_embedding_needs_two_clusters(self, blobs_graph):
        _, V = classical.laplacian_eig(blobs_graph)
        with pytest.raises(ValueError, match="k >= 2"):
            classical.embedding_kmeans(V, 1)

class TestProjectorTarget:
    def test_full_rank_returns_input(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(5, 5))
        H = H @ H.T + np.eye(5)
        y = rng.normal(size=5)
        y /= np.linalg.norm(y)
        target, amp = classical.projector_target(H, y)
        assert amp == pytest.approx(1.0)
        assert np.max(np.abs(target - y)) <= 1e-10

    def test_null_space_input_degenerate(self):
        H = np.diag([0.0, 0.0, 1.0])
        with pytest.raises(DegenerateTargetError):
            classical.projector_target(H, np.array([1.0, 0.0, 0.0]))

    def test_matches_bruteforce_eigensum(self):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        lam = np.zeros(16)
        lam[:6] = rng.uniform(0.5, 2.0, size=6)
        H = (Q * lam) @ Q.T
        y = rng.normal(size=16)
        y /= np.linalg.norm(y)
        w, V = np.linalg.eigh(H)
        brute = np.zeros(16)
        for wi, vi in zip(w, V.T):  # explicit eigenpair sum as the oracle
            if abs(wi) > 1e-8:
                brute = brute + vi * np.dot(vi, y)
        target, amp = classical.projector_target(H, y)
        assert np.max(np.abs(target * amp - brute)) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        lam = np.array([0.0, 0.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0])
        H = (Q * lam) @ Q.T
        y = rng.normal(size=8)
        y /= np.linalg.norm(y)
        t1, _ = classical.projector_target(H, y)
        t2, amp2 = classical.projector_target(H, t1)
        assert amp2 == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(t2 - t1)) <= 1e-12


class TestTraceObjective:
    def test_same_span_gives_k(self):
        V = random_orthonormal(8, 3, 0)
        assert classical.trace_objective(V, V) == pytest.approx(3.0)

    def test_orthogonal_span_gives_zero(self):
        Q = random_orthonormal(8, 8, 1)
        assert classical.trace_objective(Q[:, :3], Q[:, 3:6]) == pytest.approx(0.0, abs=1e-12)

    def test_frobenius_identity(self):
        k = 3
        Y = random_orthonormal(8, k, 2)
        V = random_orthonormal(8, k, 3)
        lhs = np.linalg.norm(V @ V.T - Y @ Y.T, "fro") ** 2
        rhs = 2 * k - 2 * classical.trace_objective(Y, V)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 16), k=st.integers(1, 4))
    def test_frobenius_identity_random(self, seed, n, k):
        k = min(k, n // 2)
        if k == 0:
            return
        Y = random_orthonormal(n, k, seed)
        V = random_orthonormal(n, k, seed + 1)
        lhs = np.linalg.norm(V @ V.T - Y @ Y.T, "fro") ** 2
        rhs = 2 * k - 2 * classical.trace_objective(Y, V)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_indicator_input(self):
        inds = [classical.IndicatorVector((0, 1), 4), classical.IndicatorVector((2, 3), 4)]
        V = np.column_stack([ind.vector() for ind in inds])
        assert classical.trace_objective(inds, V) == pytest.approx(2.0)


class TestIndicatorVector:
    def test_unit_norm(self):
        ind = classical.IndicatorVector((1, 3, 4), 6)
        v = ind.vector()
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.allclose(v[[1, 3, 4]], 1.0 / np.sqrt(3.0))
        assert np.allclose(v[[0, 2, 5]], 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            classical.IndicatorVector((), 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            classical.IndicatorVector((5,), 4)

    @pytest.mark.parametrize("members, bad", [
        ((1.5, 2.9), "1.5"), ((True, 2), "True"), ((np.float64(1.0),), "np.float64(1.0)"),
        ((np.bool_(True), 1), "np.True_"), ((0, "2"), "'2'"),
    ])
    def test_rejects_non_integer_members(self, members, bad):
        # a float or bool member is refused, not truncated to an index
        message = f"indicator member {bad} is not an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            classical.IndicatorVector(members, 4)

    def test_integer_members_become_python_ints(self):
        ind = classical.IndicatorVector((np.int64(3), 1, np.uint8(1)), 4)
        assert ind.members == (1, 3) and all(type(i) is int for i in ind.members)
        assert ind.name == "ind_1-3"
        assert not ind.vector().flags.writeable

    def test_from_labels(self):
        inds = classical.indicators_from_labels([0, 1, 0, 1], 2)
        assert inds[0].members == (0, 2)
        assert inds[1].members == (1, 3)


class TestTwoMoons:
    def test_seeded(self):
        a, labels_a = two_moons(15, 0.1, seed=4)
        b, labels_b = two_moons(15, 0.1, seed=4)
        assert np.array_equal(a, b) and np.array_equal(labels_a, labels_b)
        assert not np.array_equal(a, two_moons(15, 0.1, seed=5)[0])

    @pytest.mark.parametrize("n", [2, 15, 16])
    def test_labels_follow_the_half_split(self, n):
        # without noise, label 0 is the upper unit half-circle about (0, 0) and
        # label 1 the lower one about (1, 0.5)
        points, labels = two_moons(n, 0.0, seed=1)
        assert points.shape == (n, 2)
        assert labels.tolist() == [0] * (n // 2) + [1] * (n - n // 2)
        upper, lower = points[labels == 0], points[labels == 1] - [1.0, 0.5]
        assert np.allclose(np.hypot(*upper.T), 1.0) and np.all(upper[:, 1] >= 0.0)
        assert np.allclose(np.hypot(*lower.T), 1.0) and np.all(lower[:, 1] <= 0.0)
