"""Similarity graphs and their Laplacians.

Point sets are plain (N, d) float arrays, one point per row.  Graphs are
symmetric nonnegative weight matrices with zero diagonal, carried in a small
dataclass together with their construction parameters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-12


def as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (N, d) point array, got shape {pts.shape}")
    n, d = pts.shape
    if n < 2 or d < 1:
        raise ValueError(f"need at least 2 points of dimension >= 1, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    return pts


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric nonnegative weight matrix plus construction metadata."""

    weights: np.ndarray
    kind: str  # epsilon | knn | full
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"weight matrix must be square, got {W.shape}")
        if np.max(np.abs(W - W.T), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("weight matrix is not symmetric")
        if np.any(np.diag(W) != 0.0):
            raise ValueError("weight matrix has nonzero diagonal entries")
        if np.min(W, initial=0.0) < 0.0:
            raise ValueError("weight matrix has negative entries")
        W = W.copy()
        W.flags.writeable = False
        object.__setattr__(self, "weights", W)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def pairwise_distances(points) -> np.ndarray:
    pts = as_points(points)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def build_epsilon_graph(points, eps: float) -> SimilarityGraph:
    """Unweighted neighborhood graph: connect pairs with distance <= eps."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    D = pairwise_distances(points)
    W = (D <= eps).astype(float)
    np.fill_diagonal(W, 0.0)
    return SimilarityGraph(W, "epsilon", {"eps": eps})


def build_knn_graph(points, k: int) -> SimilarityGraph:
    """Mutual k-nearest-neighbor graph (0/1 weights).

    An edge (i, j) is present iff i is among j's k nearest points and vice
    versa.  Distance ties are broken toward the lower point index; a point is
    never its own neighbor.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < N={n}, got {k}")
    D = pairwise_distances(pts)
    chooses = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    for i in range(n):
        order = np.lexsort((idx, D[i]))  # distance first, index second
        order = order[order != i]
        chooses[i, order[:k]] = True
    W = (chooses & chooses.T).astype(float)
    return SimilarityGraph(W, "knn", {"k": k})


def build_full_graph(points, sigma: float, squared_norm: bool = False) -> SimilarityGraph:
    """Fully connected graph with Gaussian similarity weights."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    D = pairwise_distances(points)
    expo = D * D if squared_norm else D
    W = np.exp(-expo / (2.0 * sigma * sigma))
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, 0.0)
    return SimilarityGraph(W, "full", {"sigma": sigma, "squared_norm": squared_norm})


def _weights(g) -> np.ndarray:
    return g.weights if isinstance(g, SimilarityGraph) else np.asarray(g, dtype=float)


def degree_matrix(g) -> np.ndarray:
    W = _weights(g)
    return np.diag(W.sum(axis=1))


def laplacian(g) -> np.ndarray:
    """Unnormalized graph Laplacian D - W."""
    W = _weights(g)
    return degree_matrix(W) - W


def normalized_laplacian(g) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Zero-degree vertices are a hard error.
    """
    W = _weights(g)
    deg = W.sum(axis=1)
    if np.any(deg == 0.0):
        bad = np.flatnonzero(deg == 0.0)
        raise ValueError(f"graph has isolated vertices {bad.tolist()}")
    inv_sqrt = 1.0 / np.sqrt(deg)
    L = -W * inv_sqrt[:, None] * inv_sqrt[None, :]
    np.fill_diagonal(L, 1.0 + np.diag(L))
    return (L + L.T) / 2.0


def connected_components(g) -> np.ndarray:
    """Component label per vertex, found by breadth-first search."""
    W = _weights(g)
    n = W.shape[0]
    labels = np.full(n, -1, dtype=int)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(W[v] > 0.0):
                if labels[u] < 0:
                    labels[u] = comp
                    stack.append(u)
        comp += 1
    return labels


def load_points_csv(path) -> np.ndarray:
    """Read one point per row from a CSV file.

    An optional non-numeric first row is treated as a header.  Malformed rows
    (wrong column count, non-numeric fields) raise with the line number.
    """
    rows: list[list[float]] = []
    expected: int | None = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}: line {lineno}: non-numeric field in {row!r}") from None
            if expected is None:
                expected = len(values)
            elif len(values) != expected:
                raise ValueError(
                    f"{path}: line {lineno}: expected {expected} columns, got {len(values)}"
                )
            rows.append(values)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, found {len(rows)}")
    return np.asarray(rows, dtype=float)
