"""Seeded synthetic inputs: point clouds, structured random operators,
and input vectors with a guaranteed component in the amplifiable subspace.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .classical import IndicatorVector

MAX_TRIES = 10_000  # rejection-sampling draws of random_range_input and scrambled_indicators


def gaussian_blobs(sizes, centers, noise: float = 0.1, seed: int = 0):
    """Isotropic Gaussian blobs; returns (points, labels)."""
    centers = np.asarray(centers, dtype=float)
    if len(sizes) != centers.shape[0]:
        raise ValueError("one center per blob size required")
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for c, (size, center) in enumerate(zip(sizes, centers)):
        points.append(center + noise * rng.normal(size=(size, centers.shape[1])))
        labels.extend([c] * size)
    return np.vstack(points), np.asarray(labels, dtype=int)


def two_moons(n: int, noise: float = 0.05, seed: int = 0):
    """Two interleaved half-circles; returns (points, labels)."""
    rng = np.random.default_rng(seed)
    n1 = n // 2
    n2 = n - n1
    t1 = np.pi * rng.random(n1)
    t2 = np.pi * rng.random(n2)
    upper = np.column_stack([np.cos(t1), np.sin(t1)])
    lower = np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])
    pts = np.vstack([upper, lower]) + noise * rng.normal(size=(n, 2))
    labels = np.array([0] * n1 + [1] * n2, dtype=int)
    return pts, labels


def random_psd_matrix(dim: int = 16, rank: int = 6, seed: int = 0,
                      eig_range: tuple[float, float] = (0.3, 1.0)) -> np.ndarray:
    """Random PSD matrix with exactly ``rank`` nonzero eigenvalues.

    The eigenbasis is Haar-random (QR of a Gaussian matrix with sign fix);
    nonzero eigenvalues are drawn uniformly from ``eig_range``, which keeps
    the spectrum resolvable by a moderate phase register.
    """
    return random_psd_range(dim, rank, seed, eig_range)[0]


def random_psd_range(dim: int = 16, rank: int = 6, seed: int = 0,
                     eig_range: tuple[float, float] = (0.3, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """:func:`random_psd_matrix` and an orthonormal basis of its range, the
    ``rank`` drawn eigenvectors of its nonzero eigenvalues as columns."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must satisfy 1 <= rank <= dim={dim}, got {rank}")
    lo, hi = eig_range
    if not 0.0 < lo <= hi:
        raise ValueError(f"eigenvalue range must be positive, got {eig_range}")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    lam = np.zeros(dim)
    lam[:rank] = rng.uniform(lo, hi, size=rank)
    H = (Q * lam) @ Q.T
    return (H + H.T) / 2.0, Q[:, :rank]


def random_range_input(H, seed: int = 0,
                       overlap_sq: tuple[float, float] = (0.25, 0.9)) -> np.ndarray:
    """:func:`range_input` on the eigenvectors of the nonzero eigenvalues of H."""
    return range_input(numerics.nonzero_eigh(H).basis, seed, overlap_sq)


def range_input(V, seed: int = 0, overlap_sq: tuple[float, float] = (0.25, 0.9)) -> np.ndarray:
    """Random unit vector, real for a real V, whose squared projection onto
    the span of the orthonormal columns V falls inside ``overlap_sq``.

    Gaussian draws are tried first, at most :data:`MAX_TRIES` of them (the
    overlap of such a draw concentrates at r/N, so a window far from it is
    rarely met); when none falls in the window, one more draw from the same
    generator is split into its unit parts u_range in span V and u_null off
    it, and y = cos(a) u_range + sin(a) u_null with cos(a)^2 drawn uniformly
    from the window.  A window that needs a part off span V when V spans the
    whole space is a ``ValueError``."""
    if V.shape[1] == 0:
        raise ValueError("operator has no nonzero eigenvalues")
    rng = np.random.default_rng(seed)
    lo, hi = overlap_sq
    V_dag = V.conj().T
    for _ in range(MAX_TRIES):
        y = rng.normal(size=V.shape[0])
        y /= np.linalg.norm(y)
        p = float(np.linalg.norm(V_dag @ y) ** 2)
        if lo <= p <= hi:
            return y
    if V.shape[1] == V.shape[0]:
        raise ValueError(f"no input with squared overlap in [{lo}, {hi}] found in "
                         f"MAX_TRIES = {MAX_TRIES} draws, and the range spans all "
                         f"{V.shape[0]} dimensions, so every input has overlap 1")
    z = rng.normal(size=V.shape[0])
    u_range = V @ (V_dag @ z)
    u_null = z - u_range
    cos_sq = rng.uniform(lo, hi)
    return (math.sqrt(cos_sq) / np.linalg.norm(u_range) * u_range
            + math.sqrt(1.0 - cos_sq) / np.linalg.norm(u_null) * u_null)


def scrambled_indicators(indicators, seed: int = 0, taken=()) -> list[IndicatorVector]:
    """Same-size indicators over a random permutation of all member points,
    none of which repeats the member set of one of ``indicators`` or of
    ``taken`` (the candidates drawn before it).  A permutation that repeats
    one is drawn again from the same generator, at most :data:`MAX_TRIES`
    times, so a first draw that repeats none is the one kept; when no draw
    repeats none, it is a ``ValueError``, raised before any draw when every
    indicator is a singleton or one indicator holds every member (every draw
    then gives back the same member sets)."""
    if len(indicators) == 1 or all(len(ind.members) == 1 for ind in indicators):
        raise ValueError(f"scrambled: every draw of {len(indicators)} indicators repeats their "
                         "member sets (one indicator, or every indicator a singleton)")
    rng = np.random.default_rng(seed)
    dim = indicators[0].dim
    pool = [i for ind in indicators for i in ind.members]
    ends = np.cumsum([len(ind.members) for ind in indicators]).tolist()
    seen = {ind.members for ind in [*indicators, *taken]}  # members are kept sorted
    for _ in range(MAX_TRIES):
        perm = rng.permutation(pool).tolist()
        groups = [tuple(sorted(perm[start:end])) for start, end in zip([0, *ends], ends)]
        if seen.isdisjoint(groups):
            return [IndicatorVector(group, dim) for group in groups]
    raise ValueError(f"scrambled: all MAX_TRIES = {MAX_TRIES} draws of {len(ends)} indicators "
                     "repeat a candidate's member set")
