import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectral import graph, numerics


def random_graph(n, seed, density=0.5):
    rng = np.random.default_rng(seed)
    W = rng.random((n, n)) * (rng.random((n, n)) < density)
    W = np.triu(W, 1)
    return graph.SimilarityGraph(W + W.T, "full", {})


def multi_component_graph(sizes, seed):
    """Union of random connected blocks; returns (graph, component labels)."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    W = np.zeros((n, n))
    labels = np.zeros(n, dtype=int)
    start = 0
    for c, size in enumerate(sizes):
        idx = np.arange(start, start + size)
        labels[idx] = c
        for a, b in zip(idx[:-1], idx[1:]):  # spanning path keeps the block connected
            W[a, b] = W[b, a] = 0.5 + rng.random()
        for _ in range(size):
            a, b = rng.choice(idx, size=2, replace=False)
            W[a, b] = W[b, a] = 0.5 + rng.random()
        start += size
    return graph.SimilarityGraph(W, "full", {}), labels


class TestGaussianSimilarity:
    """The Gaussian kernel through the one weight of a two-point full graph."""

    @staticmethod
    def weight(x, y, sigma, squared_norm=False):
        return graph.build_full_graph([x, y], sigma, squared_norm).weights[0, 1]

    def test_identical_points(self):
        assert self.weight([1.0, 2.0], [1.0, 2.0], sigma=0.7) == 1.0

    def test_unsquared_unit_exponent(self):
        sigma = 1.3
        x = np.array([0.0])
        y = np.array([2.0 * sigma**2])
        assert self.weight(x, y, sigma) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_squared_unit_exponent(self):
        sigma = 0.9
        x = np.array([0.0])
        y = np.array([np.sqrt(2.0) * sigma])
        assert self.weight(x, y, sigma, squared_norm=True) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            self.weight([0.0], [1.0], sigma=0.0)


class TestEpsilonGraph:
    points = np.array([[0.0], [1.0], [10.0]])

    def test_single_edge(self):
        g = graph.build_epsilon_graph(self.points, eps=2.0)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(g.weights, expected)

    def test_diameter_gives_complete(self):
        g = graph.build_epsilon_graph(self.points, eps=100.0)
        assert np.array_equal(g.weights, np.ones((3, 3)) - np.eye(3))

    def test_tiny_eps_gives_empty(self):
        g = graph.build_epsilon_graph(self.points, eps=0.5)
        assert np.array_equal(g.weights, np.zeros((3, 3)))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            graph.build_epsilon_graph(self.points, eps=-1.0)


class TestKnnGraph:
    def test_two_pairs(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        g = graph.build_knn_graph(pts, k=1)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(g.weights, expected)

    def test_k_equals_n_minus_1_complete(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        g = graph.build_knn_graph(pts, k=3)
        assert np.array_equal(g.weights, np.ones((4, 4)) - np.eye(4))

    def test_tie_break_by_lower_index(self):
        # 1's nearest is 0 by tie-break, so mutuality keeps only {0,1}
        pts = np.array([[0.0], [1.0], [2.0]])
        g = graph.build_knn_graph(pts, k=1)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(g.weights, expected)

    def test_rejects_out_of_range_k(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="k must"):
            graph.build_knn_graph(pts, k=2)


class TestFullGraph:
    def test_identical_points_weight_one(self):
        g = graph.build_full_graph(np.array([[3.0, 4.0], [3.0, 4.0]]), sigma=1.0)
        assert g.weights[0, 1] == pytest.approx(1.0)

    def test_collinear_equidistant_symmetry(self):
        g = graph.build_full_graph(np.array([[0.0], [1.0], [2.0]]), sigma=0.8)
        assert g.weights[0, 1] == pytest.approx(g.weights[1, 2], rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
    def test_symmetric(self, seed, n):
        rng = np.random.default_rng(seed)
        g = graph.build_full_graph(rng.normal(size=(n, 3)), sigma=1.0)
        assert np.max(np.abs(g.weights - g.weights.T)) <= 1e-12
        assert np.all(np.diag(g.weights) == 0.0)
        assert np.min(g.weights) >= 0.0


class TestDegreeAndLaplacian:
    def test_degree_examples(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(graph.degree_matrix(W), np.eye(2))
        assert np.array_equal(graph.degree_matrix(np.zeros((3, 3))), np.zeros((3, 3)))
        W3 = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(graph.degree_matrix(W3), 2.0 * np.eye(3))

    def test_unit_edge_laplacian(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        L = graph.laplacian(W)
        assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        w, _ = numerics.hermitian_eig(L)
        assert np.allclose(w, [0.0, 2.0], atol=1e-12)

    def test_two_disjoint_edges_zero_multiplicity(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
        w, _ = numerics.hermitian_eig(graph.laplacian(W))
        assert np.sum(np.abs(w) <= 1e-10) == 2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16))
    def test_laplacian_psd_and_row_sums(self, seed, n):
        g = random_graph(n, seed)
        L = graph.laplacian(g)
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12
        w, _ = numerics.hermitian_eig(L)
        assert w[0] >= -1e-10


class TestNormalizedLaplacian:
    def test_unit_edge(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(graph.normalized_laplacian(W), [[1.0, -1.0], [-1.0, 1.0]])

    def test_regular_graph_scaling(self):
        W = np.ones((4, 4)) - np.eye(4)  # 3-regular
        assert np.allclose(graph.normalized_laplacian(W), graph.laplacian(W) / 3.0)

    def test_connected_graph_has_zero_eigenvalue(self):
        g = random_graph(8, 5, density=1.0)
        Ln = graph.normalized_laplacian(g)
        w, _ = numerics.hermitian_eig(Ln)
        assert abs(w[0]) <= 1e-10
        # eigenvector of 0 is D^{1/2} 1 normalized
        deg = g.weights.sum(axis=1)
        v0 = np.sqrt(deg) / np.linalg.norm(np.sqrt(deg))
        assert np.max(np.abs(Ln @ v0)) <= 1e-10

    def test_isolated_vertex_rejected(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(ValueError, match="isolated"):
            graph.normalized_laplacian(W)


class TestComponents:
    @settings(max_examples=20, deadline=None)
    @given(
        n_comp=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(2, 5), min_size=4, max_size=4),
    )
    def test_zero_multiplicity_matches_search(self, n_comp, seed, sizes):
        g, labels = multi_component_graph(sizes[:n_comp], seed)
        w, _ = numerics.hermitian_eig(graph.laplacian(g))
        assert np.sum(np.abs(w) <= 1e-8) == n_comp
        found = graph.connected_components(g)
        assert len(set(found)) == n_comp
        # identical partition up to label names
        assert len({(a, b) for a, b in zip(labels, found)}) == n_comp


class TestCsvIngestion:
    def test_with_header(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.0,1.0\n2.0,3.0\n")
        assert np.array_equal(graph.load_points_csv(p), [[0.0, 1.0], [2.0, 3.0]])

    def test_without_header(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,1.0\n2.0,3.0\n")
        assert np.array_equal(graph.load_points_csv(p), [[0.0, 1.0], [2.0, 3.0]])

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,1.0\n2.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            graph.load_points_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,1.0\n2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            graph.load_points_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="at least 2"):
            graph.load_points_csv(p)


def test_similarity_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        graph.SimilarityGraph(np.array([[0.0, 1.0], [0.5, 0.0]]), "full")
    with pytest.raises(ValueError, match="diagonal"):
        graph.SimilarityGraph(np.eye(2), "full")
    with pytest.raises(ValueError, match="negative"):
        graph.SimilarityGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]), "full")
