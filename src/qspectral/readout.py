"""Extracting clustering information from amplified states.

Similarity of a candidate vector to the amplified output is measured by
mapping the candidate onto |0> with a Householder reflection and reading the
probability of |0>; the classical projector route provides the oracle value.
An approximate whole-register readout through exp(i * sum_i X_i) is also
provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics
from .classical import IndicatorVector, nonzero_eigenvectors
from .encoding import EvolutionOperator, make_evolution
from .qpea import PeaConfig, amplify, amplify_many
from .registers import RegisterState, system_distribution

TIE_TOL = 1e-12  # similarities closer than this rank as equal, in input order


@dataclass(frozen=True)
class SimilarityReport:
    y_id: str
    similarity: float
    method: str  # householder | direct
    rank: int | None = None

    def __post_init__(self):
        if not -1e-10 <= self.similarity <= 1.0 + 1e-10:
            raise ValueError(f"similarity {self.similarity} outside [0, 1]")


def householder_similarity(psi, y) -> float:
    """P(|0>) after reflecting the candidate y onto |0>, i.e. |<y|psi>|^2.

    The reflection axis is (y - e0) normalized (identity when y = e0), which
    maps y to the zero state exactly.
    """
    psi = numerics.as_vector(psi)
    y = numerics.as_vector(y)
    if psi.size != y.size:
        raise ValueError(f"dimension mismatch: {psi.size} vs {y.size}")
    for name, v in (("psi", psi), ("y", y)):
        if not numerics.is_normalized(v, 1e-8):
            raise ValueError(f"{name} must be unit norm")
    w, _ = numerics.householder_axis(y)
    reflected = psi if w is None else psi - 2.0 * np.vdot(w, psi) * w
    return float(min(1.0, abs(reflected[0]) ** 2))


def register_similarity(state: RegisterState, y) -> float:
    """Householder similarity measured on the system register of a state.

    Equals <y| rho |y> for the reduced system density matrix rho, i.e. the
    probability of reading |0> on the system register after the mapping
    reflection, with the phase register traced out.  It is |S conj(B^dag y)|^2
    on the state's coefficients S and columns B, so no register array is built.
    """
    overlaps = state.system_overlaps(numerics.as_vector(y))
    return float(min(1.0, np.vdot(overlaps, overlaps).real))


def direct_similarity(H, y) -> float:
    """Classical oracle <y| V V^dag |y> over the nonzero eigenspace of H."""
    return span_similarities(nonzero_eigenvectors(H)[1], [y])[0]


def span_similarities(V, ys: Sequence) -> list[float]:
    """<y| V V^dag |y> of each candidate, for orthonormal columns V."""
    Vh = V.conj().T
    return [float(min(1.0, np.linalg.norm(Vh @ numerics.as_vector(y)) ** 2)) for y in ys]


def x_sum_exponential(n: int) -> np.ndarray:
    """exp(i * sum_i X_i) = tensor power of cos(1) I + i sin(1) X."""
    if n < 1:
        raise ValueError(f"need n >= 1 qubits, got {n}")
    single = np.array(
        [[np.cos(1.0), 1j * np.sin(1.0)], [1j * np.sin(1.0), np.cos(1.0)]], dtype=complex
    )
    out = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        out = np.kron(out, single)
    return out


def approx_cluster_readout(
    cfg: PeaConfig,
    evo: EvolutionOperator,
    max_iter: int = 40,
    stop_tol: float | None = 0.05,
) -> np.ndarray:
    """Approximate clustering readout through the X-sum exponential.

    Starts the system register in the uniform superposition, applies
    exp(i sum X), runs the amplified pipeline, applies the exponential again,
    and returns the resulting computational-basis distribution of the system
    register.  The argmax is the approximate cluster index.
    """
    n = evo.n_qubits
    mixer = x_sum_exponential(n)
    plus = np.full(2**n, 1.0 / np.sqrt(2**n), dtype=complex)
    y_in = mixer @ plus
    state, _ = amplify(cfg, evo, y_in, max_iter=max_iter, stop_tol=stop_tol)
    dist = system_distribution(state.as_matrix() @ mixer.T)
    return dist / dist.sum()


def rank_indicators(
    H,
    candidates: Sequence[IndicatorVector],
    cfg: PeaConfig,
    max_iter: int = 60,
    stop_tol: float | None = 0.05,
    evo: EvolutionOperator | None = None,
) -> list[SimilarityReport]:
    """Run the amplified pipeline per candidate and sort by measured similarity.

    Each indicator is amplified under the stopping rule, over one estimation
    pipeline shared by all of them, and its Householder similarity against the
    final system register is recorded (:func:`register_similarity`, which
    builds no register array); reports come back sorted descending with
    1-based ranks.  ``evo`` reuses an evolution operator already built from H.
    """
    if evo is None:
        evo = make_evolution(H, cfg.m)
    ys = [c.vector() for c in candidates]
    runs = amplify_many(cfg, evo, ys, max_iter=max_iter, stop_tol=stop_tol)
    return _ranked([c.name for c in candidates],
                   [register_similarity(state, y) for (state, _), y in zip(runs, ys)],
                   "householder")


def _ranked(names, similarities, method: str) -> list[SimilarityReport]:
    """Reports sorted by descending similarity, with 1-based ranks; neighbours in
    that order within :data:`TIE_TOL` tie, and a tie group keeps the input order."""
    order = sorted(range(len(names)), key=lambda i: -similarities[i])
    gaps = [similarities[a] - similarities[b] > TIE_TOL for a, b in zip(order, order[1:])]
    order = [i for _, i in sorted(zip(np.cumsum([0, *gaps]), order))]
    return [SimilarityReport(names[i], similarities[i], method, rank + 1)
            for rank, i in enumerate(order)]


def cluster_quantum(H, candidates: Sequence[IndicatorVector], cfg: PeaConfig, max_iter: int = 60,
                    stop_tol: float | None = 0.05
                    ) -> tuple[list[SimilarityReport], list[SimilarityReport], np.ndarray]:
    """Amplified ranking, oracle ranking and point labels for indicator candidates.

    Returns ``(ranked, direct, labels)``: the :func:`rank_indicators` reports; the
    oracle <y| V V^dag |y> over the nonzero eigenspace of H, ranked the same way;
    and per point the index in ``ranked`` of the best-ranked candidate containing
    it, or -1.  One eigendecomposition of H serves both rankings.
    """
    evo = make_evolution(H, cfg.m)
    ranked = rank_indicators(H, candidates, cfg, max_iter=max_iter, stop_tol=stop_tol, evo=evo)
    oracle = span_similarities(evo.nonzero_basis, [c.vector() for c in candidates])
    direct = _ranked([c.name for c in candidates], oracle, "direct")
    by_name = {c.name: c for c in candidates}
    labels = np.full(evo.dim, -1, dtype=int)
    for i in reversed(range(len(ranked))):  # better ranks overwrite worse ones
        labels[list(by_name[ranked[i].y_id].members)] = i
    return ranked, direct, labels
