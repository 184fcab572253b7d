"""Data-matrix encodings for phase estimation.

Provides the outer-product (Gram) matrix of a point set, its decomposition
into a weighted sum of Householder reflections, and unitary evolution
operators (the exact exponential, or the unitarized linear surrogate
I - iH/k) whose eigenphases carry the eigenvalues of H into the
phase-estimation register.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import PhaseResolutionError


@dataclass(frozen=True)
class HouseholderSum:
    """Weighted sum of rank-one projectors written via Householder reflections.

    ``reconstruct()`` returns sum_j c_j |x_j><x_j| which must equal the source
    matrix; each reflection I - 2|x_j><x_j| is unitary by construction.
    """

    reflectors: np.ndarray  # (L, dim) unit rows
    coefficients: np.ndarray  # (L,) nonnegative weights
    dim: int

    def __post_init__(self):
        refl = np.asarray(self.reflectors, dtype=complex)
        coef = np.asarray(self.coefficients, dtype=float)
        if refl.ndim != 2 or refl.shape[1] != self.dim or refl.shape[0] != coef.size:
            raise ValueError("reflectors and coefficients have inconsistent shapes")
        norms = np.linalg.norm(refl, axis=1)
        if np.max(np.abs(norms - 1.0), initial=0.0) > 1e-10:
            raise ValueError("reflector rows must be unit vectors")
        if np.min(coef, initial=0.0) < 0.0:
            raise ValueError("coefficients must be nonnegative")
        refl, coef = refl.copy(), coef.copy()
        refl.flags.writeable = False
        coef.flags.writeable = False
        object.__setattr__(self, "reflectors", refl)
        object.__setattr__(self, "coefficients", coef)

    def __len__(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c, x in zip(self.coefficients, self.reflectors):
            out += c * np.outer(x, x.conj())
        return out


def _data_array(points) -> np.ndarray:
    """The data rows as a 2-d float array."""
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d data array, got shape {X.shape}")
    return X


def gram_matrix(points) -> np.ndarray:
    """Sum of outer products of the data rows.

    For an (L, N) array X of row vectors this is X^T X: symmetric, positive
    semidefinite, of order N.
    """
    X = _data_array(points)
    H = X.T @ X
    return (H + H.T) / 2.0


def gram_columns(points, centered: bool = False) -> np.ndarray:
    """Feature columns of the (N, d) points, optionally centered: a (d, N)
    array whose rows are the Householder terms of :func:`points_gram`."""
    X = _data_array(points)
    return (X - X.mean(axis=0) if centered else X).T


def points_gram(points, centered: bool = False) -> np.ndarray:
    """Pairwise inner-product matrix of the points (order N).

    This is the clustering-facing orientation of :func:`gram_matrix`: the
    operator acts on the point-index space where cluster indicators live, and
    its Householder terms are the feature columns (``householder_decompose``
    of :func:`gram_columns`).
    """
    return gram_matrix(gram_columns(points, centered))


def householder_decompose(points) -> HouseholderSum:
    """Decompose the outer-product sum of the data rows into reflections.

    Every row x contributes -(1/2)[(I - 2|x^><x^|) - I] * ||x||^2, so the
    reconstruction equals :func:`gram_matrix`.  Rows of zero norm carry no
    weight and are dropped with a warning.
    """
    X = _data_array(points)
    norms = np.linalg.norm(X, axis=1)
    keep = norms > 0.0
    if not np.any(keep):
        raise ValueError("all rows are zero; nothing to decompose")
    if not np.all(keep):
        warnings.warn(f"dropping {int(np.sum(~keep))} zero rows", stacklevel=2)
        X, norms = X[keep], norms[keep]
    return HouseholderSum(X / norms[:, None], norms**2, X.shape[1])


@dataclass(frozen=True)
class EvolutionOperator:
    """Unitary whose eigenphases encode the spectrum of a Hermitian matrix.

    Backends: ``exact_exponential`` is U = exp(2*pi*i*t*H) with eigenphase
    t*lambda_j; ``linearized`` unitarizes I - iH/k so the eigenphase is
    -arctan(lambda_j/k)/(2*pi).  Eigenvalues within ``zero_tol`` (always
    ``numerics.ZERO_RTOL * ||H||_1``) of zero are pinned to phase exactly 0 in
    both backends, so U is the identity off the nonzero eigenspace, whose (N, r)
    basis (real for a real H) is all of the eigenbasis the operator keeps;
    U itself is built only when :attr:`unitary` is read.  :func:`make_evolution`
    returns its arrays read-only, since what is cached on the operator is
    built from them.
    """

    backend: str
    time: float | None  # phase scaling t (exact backend)
    scale: float | None  # divisor k (linearized backend)
    eigenvalues: np.ndarray  # of the Hamiltonian, ascending
    nonzero_basis: np.ndarray  # (N, r) eigenvectors of the nonzero eigenvalues, as columns
    eigenphases: np.ndarray  # signed; equal mod 1 to the phases of U
    zero_tol: float

    @property
    def unitary(self) -> np.ndarray:
        """U = I + V_nz diag(exp(2 pi i phi_nz) - 1) V_nz^dag, computed on each read."""
        V = self.nonzero_basis
        rotation = np.exp(2j * np.pi * self.eigenphases[self.nonzero_mask()]) - 1.0
        return np.eye(self.dim) + (V * rotation) @ V.conj().T

    @property
    def dim(self) -> int:
        return self.nonzero_basis.shape[0]

    def nonzero_mask(self) -> np.ndarray:
        return np.abs(self.eigenvalues) > self.zero_tol

    @cached_property
    def engines(self) -> dict:
        """The phase-estimation engines built on this operator, by phase
        width m, filled by :mod:`qspectral.qpea` on first use.  An engine
        holds this operator's arrays but no reference to the operator, so the
        two form no reference cycle and both are freed with the last
        reference to the operator."""
        return {}


def make_evolution(H, m: int, backend: str = "exact_exponential",
                   t: float | None = None) -> EvolutionOperator:
    """Build the evolution unitary fed to phase estimation.

    For the exact backend the time scaling ``t`` is chosen automatically so
    that all eigenphases lie in [0, 1) and every nonzero eigenphase is at
    least 2/2**m (two phase bins away from zero, on both ends of the
    interval); pass ``t`` explicitly to override, in which case only the
    [0, 1) window is enforced.  The linearized backend has no time scaling
    and refuses a ``t``; it divides H by k = 10 ||H||_1, which bounds every
    |eigenvalue|/k by 0.1.  The spectrum comes from
    :func:`numerics.nonzero_eigh`, which also supplies ||H||_1.
    """
    H = numerics.as_matrix(H)
    if m < 1:
        raise ValueError(f"need at least one phase qubit, got m={m}")
    if backend == "linearized" and t is not None:
        raise ValueError(f"t={t} has no effect on the linearized backend, "
                         "which divides H by k = 10 ||H||_1")
    w, V_nz, zero_tol, norm1 = numerics.nonzero_eigh(H)
    nz = np.abs(w) > zero_tol
    M = 2**m

    if backend == "exact_exponential":
        if t is None:
            if not nz.any():
                t = 1.0
            else:
                if w[0] < -zero_tol:
                    raise PhaseResolutionError(
                        f"automatic time scaling needs a PSD operator; "
                        f"smallest eigenvalue is {w[0]:.6g}"
                    )
                cap = 1.0 - 2.0 / M
                if cap < 2.0 / M:
                    raise PhaseResolutionError(
                        f"m={m} leaves no resolvable phase window (cap {cap:.4g} < {2.0 / M:.4g})"
                    )
                lam_max = float(w[-1])
                lam_min = float(np.abs(w[nz]).min())
                t = cap / lam_max
                if t * lam_min < 2.0 / M - 1e-12:
                    raise PhaseResolutionError(
                        f"eigenvalue {lam_min:.6g} maps to phase {t * lam_min:.6g} "
                        f"< 2/2^m = {2.0 / M:.6g}; not separable from the zero bin"
                    )
        phases = np.where(nz, t * w, 0.0)
        if (phases < 0.0).any() or (phases >= 1.0).any():
            bad = phases[(phases < 0.0) | (phases >= 1.0)][0]
            raise PhaseResolutionError(f"eigenphase {bad:.6g} outside [0, 1) at t={t:.6g}")
        scale = None
    elif backend == "linearized":
        k = 10.0 * norm1
        if k == 0.0:
            raise ValueError("zero matrix cannot be linearized (k = 0)")
        phases = np.where(nz, -np.arctan(w / k) / (2.0 * np.pi), 0.0)
        t, scale = None, k
    else:
        raise ValueError(f"unknown backend {backend!r}")

    for array in (w, V_nz, phases):  # the engines kept on the operator read them
        array.flags.writeable = False
    return EvolutionOperator(backend=backend, time=t, scale=scale, eigenvalues=w,
                             nonzero_basis=V_nz, eigenphases=phases, zero_tol=zero_tol)


def ladder_phase_table(evo: EvolutionOperator, m: int) -> np.ndarray:
    """Eigenbasis diagonal of the controlled-power ladder on m phase qubits,
    over the nonzero eigenvectors only (the others get phase 1 for every p).

    Entry [p, j] = exp(2 pi i (p phi_j mod 1)) is the phase that U^p puts on
    the j-th column of ``evo.nonzero_basis``; its conjugate gives the inverse
    ladder.  Shape (2^m, r) for r nonzero eigenvalues.  Built in two levels:
    with p = q L + s and L = 2^(m//2), entry [p, j] is the product of the
    phases of q (L phi_j) and of s phi_j, so only 2^(m - m//2) + L rows take
    an exp.  L phi_j is exact, so the rows p = q L are the one-level table's.
    """
    phi = evo.eigenphases[evo.nonzero_mask()]
    low = 2 ** (m // 2)
    high = _cis(np.arange(2**m // low)[:, None] * (low * phi))
    return (high[:, None, :] * _cis(np.arange(low)[:, None] * phi)).reshape(2**m, phi.size)


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(2 pi i x), reduced mod 1 first; x - floor(x) is x mod 1 exactly,
    and faster than np.mod."""
    return np.exp(2j * np.pi * (x - np.floor(x)))


def gate_count_estimate(L: int, N: int, m: int, simple_unitaries: bool = False) -> int:
    """Gate-count bound 2^m * L * N (or 2^m * L * ceil(log2 N) for simple terms)."""
    if L < 1 or N < 1 or m < 0:
        raise ValueError("L, N must be >= 1 and m >= 0")
    per_term = int(np.ceil(np.log2(N))) if simple_unitaries else N
    return (2**m) * L * per_term
