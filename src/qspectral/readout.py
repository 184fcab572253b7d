"""Extracting clustering information from amplified states.

Similarity of a candidate vector to the amplified output is measured by
mapping the candidate onto |0> with a Householder reflection and reading the
probability of |0>; the classical projector route provides the oracle value.
The state is read only against given candidates.  ``x_sum_exponential``
builds exp(i * sum_i X_i); it cannot serve as a candidate-free readout mixer,
since the uniform superposition is its eigenvector (a global phase e^{in}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics
from .classical import IndicatorVector
from .encoding import EvolutionOperator, make_evolution
from .qpea import PeaConfig, amplify_many
from .registers import RegisterState, system_similarities

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
    reflection, with the phase register traced out.  Read by
    ``registers.system_similarities``, which builds no register array: y has
    the state's N entries, or 2^n that are zero past row N, and unit norm.
    """
    return float(system_similarities([state], [y])[0])


def direct_similarity(H, y) -> float:
    """Classical oracle <y| V V^dag |y> over the nonzero eigenspace of H."""
    return float(span_similarities(numerics.nonzero_eigh(H).basis, [y])[0])


def span_similarities(V, ys) -> np.ndarray:
    """<y| V V^dag |y> of each candidate, a row of ``ys``, for orthonormal
    columns V, in one stacked product whose item for each candidate is its own
    product ``p = V^dag y``, so a candidate reads the same bits alone and in a
    batch: |p|^2 is the dot product of the real parts of p plus that of its
    imaginary parts, clamped to 1."""
    Y = np.asarray(ys, dtype=complex)
    if Y.ndim != 2:
        raise ValueError(f"expected a stack of candidate vectors, got shape {Y.shape}")
    P = V.conj().T @ Y[:, :, None]  # (K, r, 1)
    sq = P.real.transpose(0, 2, 1) @ P.real + P.imag.transpose(0, 2, 1) @ P.imag
    return np.minimum(1.0, sq[:, 0, 0])


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


def rank_indicators(H, candidates: Sequence[IndicatorVector], cfg: PeaConfig, max_iter: int = 60,
                    stop_tol: float | None = 0.05, evo: EvolutionOperator | None = None
                    ) -> list[SimilarityReport]:
    """Run the amplified pipeline per candidate and sort by measured similarity.

    Each indicator is amplified under the stopping rule, over one estimation
    pipeline shared by all of them, and its Householder similarity against the
    final system register is recorded (:func:`register_similarity`, which
    builds no register array); reports come back sorted descending with
    1-based ranks.  ``evo`` reuses an evolution operator already built from H.
    Candidates must be distinct: a list that repeats a member set is refused
    before any amplification.
    """
    names = _distinct_names(candidates)
    if evo is None:
        evo = make_evolution(H, cfg.m)
    ys = [c.vector() for c in candidates]
    runs = amplify_many(cfg, evo, ys, max_iter=max_iter, stop_tol=stop_tol)
    if not runs:
        return []
    return _ranked(names, system_similarities([state for state, _ in runs], ys), "householder")


def _distinct_names(candidates: Sequence[IndicatorVector]) -> list[str]:
    """The candidates' names; a list that repeats a member set is refused."""
    names = [c.name for c in candidates]
    if len(set(names)) < len(names):  # a name is its sorted member set
        repeat = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"candidate {repeat} is repeated; candidates must be distinct")
    return names


def _ranked(names, similarities, method: str) -> list[SimilarityReport]:
    """Reports sorted by descending similarity, with 1-based ranks; neighbours in
    that order within :data:`TIE_TOL` tie, and a tie group keeps the input order."""
    similarities = np.asarray(similarities, dtype=float)
    order = np.argsort(-similarities, kind="stable")
    ranked = similarities[order]
    groups = np.cumsum(np.diff(ranked, prepend=ranked[:1]) < -TIE_TOL)  # a gap opens a group
    order = order[np.lexsort((order, groups))]
    return [SimilarityReport(names[i], value, method, rank)
            for rank, (i, value) in enumerate(zip(order.tolist(),
                                                  similarities[order].tolist()), 1)]


def cluster_quantum(H, candidates: Sequence[IndicatorVector], cfg: PeaConfig, max_iter: int = 60,
                    stop_tol: float | None = 0.05
                    ) -> tuple[list[SimilarityReport], list[SimilarityReport], np.ndarray]:
    """Amplified ranking, oracle ranking and point labels for indicator candidates.

    Returns ``(ranked, direct, labels)``: the :func:`rank_indicators` reports; the
    oracle <y| V V^dag |y> over the nonzero eigenspace of H, ranked the same way;
    and per point the index in ``ranked`` of the best-ranked candidate containing
    it, or -1.  One eigendecomposition of H serves both rankings; a candidate
    list that repeats a member set is refused before it.
    """
    names = _distinct_names(candidates)
    evo = make_evolution(H, cfg.m)
    ranked = rank_indicators(H, candidates, cfg, max_iter=max_iter, stop_tol=stop_tol, evo=evo)
    K = len(candidates)
    Y = np.array([c.vector() for c in candidates], dtype=complex).reshape(K, evo.dim)  # K >= 0
    direct = _ranked(names, span_similarities(evo.nonzero_basis, Y), "direct")
    index = {name: i for i, name in enumerate(names)}
    members = np.ones((K + 1, evo.dim), dtype=bool)  # rows in ranked order, then "in none"
    members[:K] = Y[[index[r.y_id] for r in ranked]] != 0.0
    best = members.argmax(axis=0)  # the best-ranked candidate holding each point
    return ranked, direct, np.where(best < K, best, -1)
