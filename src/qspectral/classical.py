"""Classical reference pipeline: Lloyd's k-means, spectral clustering,
eigengap selection, cluster indicators, and the trace objective.

These routines double as the correctness oracle for the quantum path, so
they favor clarity and verifiability over speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import graph as graphmod
from . import numerics
from .errors import DegenerateTargetError

KMEANS_MAX_ITER = 200  # Lloyd iterations per k-means run, at most
VARIANTS = ("unnormalized", "normalized", "row_normalized")  # Laplacian variants


@dataclass
class ClusterAssignment:
    """Result of a clustering run: labels, centroids and diagnostics."""

    labels: np.ndarray
    k: int
    centroids: np.ndarray
    objective: float
    n_iter: int
    objective_history: list[float] = field(default_factory=list)
    reseeds: list[tuple[int, int]] = field(default_factory=list)  # (iteration, cluster)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        present = np.unique(self.labels)
        if not np.array_equal(present, np.arange(self.k)):
            raise ValueError(f"labels must use every cluster id 0..{self.k - 1}, got {present}")


@dataclass(frozen=True)
class IndicatorVector:
    """Unit vector that is constant on one cluster and zero elsewhere.

    ``members`` are point indices, each an ``int`` or ``np.integer`` (not a
    ``bool``); they are kept sorted, without repeats, as Python ints.  The
    name and the read-only vector are built once, on construction.
    """

    members: tuple[int, ...]
    dim: int
    name: str = field(init=False, compare=False, repr=False)
    _vector: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        given = tuple(self.members)
        kinds = set(map(type, given))
        if kinds != {int}:  # one test per distinct type, then Python ints
            for kind in kinds:
                if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
                    bad = next(i for i in given if type(i) is kind)
                    raise ValueError(f"indicator member {bad!r} is not an integer")
            given = map(int, given)
        members = tuple(sorted(set(given)))
        if not members:
            raise ValueError("indicator must have at least one member")
        if members[0] < 0 or members[-1] >= self.dim:
            raise ValueError(f"members {members} out of range for dim {self.dim}")
        v = np.zeros(self.dim)
        v.put(members, 1.0 / math.sqrt(len(members)))
        v.flags.writeable = False
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "name", "ind_" + "-".join(map(str, members)))
        object.__setattr__(self, "_vector", v)

    def vector(self) -> np.ndarray:
        """The unit indicator, read-only, so that every call returns the same
        array."""
        return self._vector


def indicators_from_labels(labels, k: int) -> list[IndicatorVector]:
    labels = np.asarray(labels, dtype=int)
    return [IndicatorVector(tuple(np.flatnonzero(labels == c).tolist()), labels.size)
            for c in range(k)]


def _farthest_point_init(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[chosen].copy()


def kmeans(points, k: int, init: int | np.ndarray = 0) -> ClusterAssignment:
    """Lloyd's algorithm, for at most :data:`KMEANS_MAX_ITER` iterations.

    ``init`` is either a seed for the greedy farthest-point initializer or an
    explicit (k, d) centroid array.  An empty cluster is re-seeded at the
    point farthest from its assigned centroid, and the event is recorded.
    """
    pts = graphmod.as_points(points)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= N={n}, got {k}")
    if isinstance(init, (int, np.integer)):
        centroids = _farthest_point_init(pts, k, int(init))
    else:
        centroids = np.array(init, dtype=float)
        if centroids.shape != (k, pts.shape[1]):
            raise ValueError(f"explicit centroids must have shape {(k, pts.shape[1])}")

    labels = np.full(n, -1, dtype=int)
    history: list[float] = []
    reseeds: list[tuple[int, int]] = []
    n_iter = 0
    for it in range(1, KMEANS_MAX_ITER + 1):
        n_iter = it
        d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
        new_labels = np.argmin(d2, axis=1)  # ties resolve to the lower cluster id
        for c in range(k):
            if not np.any(new_labels == c):
                worst = int(np.argmax(d2[np.arange(n), new_labels]))
                new_labels[worst] = c
                centroids[c] = pts[worst]
                d2[:, c] = np.sum((pts - pts[worst]) ** 2, axis=1)
                reseeds.append((it, c))
        history.append(float(np.sum((pts - centroids[new_labels]) ** 2)))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = pts[labels == c].mean(axis=0)
    objective = float(np.sum((pts - centroids[labels]) ** 2))
    return ClusterAssignment(labels, k, centroids, objective, n_iter, history, reseeds)


def eigengap_select(eigenvalues, k_max: int) -> int:
    """Cluster count with the largest eigengap |lambda_k - lambda_{k+1}|.

    ``eigenvalues`` must be sorted ascending; k is 1-indexed and searched over
    2 <= k < min(k_max, len(eigenvalues)), as a clustering needs two
    clusters; ties pick the smallest k, and an empty range gives 2.  (k = 1
    would win on every connected graph, whose first gap is its spectral gap.)
    """
    w = np.asarray(eigenvalues, dtype=float)
    gaps = np.abs(np.diff(w[1:min(int(k_max), w.size)]))
    return int(np.argmax(gaps)) + 2 if gaps.size else 2


def laplacian_matrix(g, variant: str = "unnormalized") -> np.ndarray:
    """The variant's Laplacian: D - W for ``unnormalized``, the symmetric
    normalized one for ``normalized`` and ``row_normalized``."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return graphmod.laplacian(g) if variant == "unnormalized" else graphmod.normalized_laplacian(g)


def laplacian_eig(g, variant: str = "unnormalized") -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of :func:`laplacian_matrix`."""
    return numerics.hermitian_eig(laplacian_matrix(g, variant))


def embedding_kmeans(V, k: int, variant: str = "unnormalized",
                     init: int | np.ndarray = 0) -> ClusterAssignment:
    """k-means on the rows of the k lowest Laplacian eigenvectors ``V[:, :k]``;
    ``row_normalized`` scales each row to unit length first."""
    if k < 2:
        raise ValueError(f"need k >= 2 clusters, got {k}")
    rows = V[:, :k].real.copy()
    if variant == "row_normalized":
        norms = np.linalg.norm(rows, axis=1)
        nz = norms > 1e-12
        rows[nz] /= norms[nz, None]
    return kmeans(rows, k, init=init)


def spectral_cluster(
    g,
    k: int,
    variant: str = "unnormalized",
    init: int | np.ndarray = 0,
) -> ClusterAssignment:
    """Cluster by k-means on the rows of the k lowest Laplacian eigenvectors:
    :func:`embedding_kmeans` over :func:`laplacian_eig` of the graph."""
    return embedding_kmeans(laplacian_eig(g, variant)[1], k, variant, init)


def projector_target(H, y) -> tuple[np.ndarray, float]:
    """Project y onto the span of nonzero-eigenvalue eigenvectors of H.

    Returns the normalized projection and its pre-normalization norm (the
    ground-truth success amplitude).  Raises if the projection vanishes.
    """
    return span_projection(numerics.nonzero_eigh(H).basis, y)


def span_projection(V, y) -> tuple[np.ndarray, float]:
    """Normalized projection of y onto the span of the orthonormal columns V,
    and its pre-normalization norm; raises if the projection vanishes."""
    y = numerics.as_vector(y)
    if V.shape[1] == 0:
        raise DegenerateTargetError("operator has no nonzero eigenvalues")
    proj = V @ (V.conj().T @ y)
    amplitude = float(np.linalg.norm(proj))
    if amplitude <= 1e-12:
        raise DegenerateTargetError("input lies in the null space of the operator")
    return proj / amplitude, amplitude


def trace_objective(indicators: Sequence[IndicatorVector] | np.ndarray, V) -> float:
    """Sum of <y_j| V V^dag |y_j> over the given orthonormal columns y_j."""
    if isinstance(indicators, np.ndarray):
        Y = np.asarray(indicators, dtype=complex)
    else:
        Y = np.column_stack([ind.vector() for ind in indicators]).astype(complex)
    V = np.asarray(V, dtype=complex)
    if Y.shape[0] != V.shape[0]:
        raise ValueError(f"dimension mismatch: {Y.shape[0]} vs {V.shape[0]}")
    return float(np.linalg.norm(V.conj().T @ Y, "fro") ** 2)
