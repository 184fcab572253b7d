"""Dense linear algebra kernel.

Everything else in the package is built on (and verified against) these
routines: Hermitian eigendecomposition (the full spectrum, or the nonzero
eigenpairs of a large low-rank matrix from the small Gram matrix of its
pivoted-Cholesky factor), the induced 1-norm and Householder-style
reflections.  All functions are pure and operate on plain numpy arrays.
Matrices keep their own arithmetic: a real input stays float64 (so a real
symmetric matrix gets a real eigendecomposition) and a complex one is
complex128.  State vectors are always complex.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

OP_TOL = 1e-10   # default tolerance for operator identities (unitarity etc.)
VEC_TOL = 1e-12  # default tolerance for vector norms
ZERO_RTOL = 1e-8  # an eigenvalue within ZERO_RTOL * ||A||_1 of zero counts as zero
# nonzero_eigh tries the factor route from order FACTOR_MIN_DIM up and abandons
# it once the factor's rank passes FACTOR_MAX_RANK * N: below the measured
# crossovers with a full eigh (2-core x86, OpenBLAS 0.3.31, 1 or 2 threads).
# At N=64 the two routes are within 0.1 ms of each other; at N=128 and rank 16
# the factor route takes 0.30 ms against 0.98 ms.  The rank where they tie
# grows with N, from about 0.43 N at N=128 to 0.6 N at N=256 and past 0.6 N at
# N=512; the cap sits below all three.
FACTOR_MIN_DIM = 128
FACTOR_MAX_RANK = 0.3
PIVOT_RTOL = 1e-2  # pivoted Cholesky stops once its remainder's trace is below this * zero_tol
# the Hermitian check reads A in slabs of this many rows and columns.  At N=512
# the check and ||A||_1 took 0.8 ms with blocks of 32 to 64, against 2.5 ms
# for the dense A - A^H and two passes of |A| (real A; complex 1.7 against
# 4.8 ms; 2-core x86, min of 7 x 20 calls)
HERMITIAN_BLOCK = 64


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    return v


def as_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {A.shape}")
    return A


def is_normalized(v, tol: float = VEC_TOL) -> bool:
    return abs(math.sqrt(np.vdot(v, v).real) - 1.0) <= tol


def is_hermitian(A, tol: float = VEC_TOL) -> bool:
    """max |A_ij - conj(A_ji)| <= tol * max(1, max |A_ij|); False for a
    non-square A or one with a non-finite entry."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    largest = float(np.abs(A).max(initial=0.0))  # NaN if A holds one; max(1.0, NaN) is 1.0
    return math.isfinite(largest) and _hermitian_gap(A) <= tol * max(1.0, largest)


def _hermitian_gap(A: np.ndarray) -> float:
    """max |A_ij - conj(A_ji)| of a square A, read by upper block pairs: rows
    i:i+B of A against columns i:i+B, so each pair of entries is read in one
    contiguous slab instead of through a full transposed copy.  Equal bit for
    bit to ``np.abs(A - A.conj().T).max()``: fl(a - conj(b)) = -conj(fl(b -
    conj(a))), so the lower triangle repeats the upper one's magnitudes.  A
    NaN gap propagates."""
    n, B = A.shape[0], HERMITIAN_BLOCK
    gaps = [np.abs(A[i:i + B, i:] - A[i:, i:i + B].conj().T).max() for i in range(0, n, B)]
    return float(np.max(gaps, initial=0.0))


def is_unitary(A, tol: float = OP_TOL) -> bool:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    return float(np.max(np.abs(A.conj().T @ A - np.eye(A.shape[0])))) <= tol


def matrix_1norm(A) -> float:
    """Induced 1-norm: maximum absolute column sum."""
    A = as_matrix(A)
    return float(np.abs(A).sum(axis=0).max())


def _hermitian_matrix(A) -> tuple[np.ndarray, float]:
    """A as a checked Hermitian matrix, and its ||A||_1.  One pass of |A|, in
    slabs of ``HERMITIAN_BLOCK`` rows, gives both the check's scale max(1,
    max |A_ij|) and the norm; each slab's first row takes the column sums of
    the rows above it, so the sums run down the rows in the order of
    ``np.abs(A).sum(axis=0)`` and the norm equals it bit for bit.  A NaN or
    infinite entry is refused once every slab is read, before the Hermitian
    gap is formed."""
    A = as_matrix(A)
    n = A.shape[0]
    if n != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    peaks, sums = [], None
    for i in range(0, n, HERMITIAN_BLOCK):
        magnitude = np.abs(A[i:i + HERMITIAN_BLOCK])
        peaks.append(float(magnitude.max()))  # NaN if the slab holds one
        if sums is not None:
            magnitude[0] += sums
        sums = magnitude.sum(axis=0)
    if not all(map(math.isfinite, peaks)):
        raise ValueError("matrix has non-finite (NaN or infinite) entries")
    if _hermitian_gap(A) > VEC_TOL * max(1.0, max(peaks)):
        raise ValueError("matrix is not Hermitian within tolerance")
    return A, float(sums.max())


def _residual(A: np.ndarray, V: np.ndarray, w: np.ndarray) -> float:
    """max |A V - V diag(w)|, 0 for no columns."""
    R = A @ V
    R -= V * w
    return float(np.abs(R).max(initial=0.0))


def _checked_eigh(A: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a checked Hermitian A, with its residual
    ``A V - V diag(w)`` verified against ``OP_TOL * scale``."""
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    residual = _residual(A, V, w)
    if residual > OP_TOL * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {OP_TOL:.1e} * {scale:.3e}"
        )
    return w, V


def hermitian_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted
    ascending and orthonormal eigenvectors as columns, real for a real
    (symmetric) input and complex otherwise.  The input must be
    Hermitian (checked); the residual ``A V - V diag(w)`` is verified against
    ``OP_TOL * max(1, ||A||_1)`` after the solve.
    """
    A, norm1 = _hermitian_matrix(A)
    return _checked_eigh(A, max(1.0, norm1))


class NonzeroEigh(NamedTuple):
    """What :func:`nonzero_eigh` returns."""

    eigenvalues: np.ndarray  # all N, ascending
    basis: np.ndarray  # (N, r) orthonormal eigenvectors of the nonzero eigenvalues, in that order
    zero_tol: float  # ZERO_RTOL * ||A||_1: an eigenvalue at most this far from 0 is null
    norm1: float  # ||A||_1


def nonzero_eigh(A) -> NonzeroEigh:
    """Eigenvalues of a Hermitian matrix and the eigenvectors of its nonzero ones.

    An eigenvalue is null when its magnitude is at most ``zero_tol`` =
    ``ZERO_RTOL * ||A||_1``; ||A||_1 is computed once and also sets the
    residual scale ``max(1, ||A||_1)``.  Below order :data:`FACTOR_MIN_DIM`
    this is :func:`hermitian_eig` with its columns of the nonzero eigenvalues
    sliced out.  From that order up the factor route (:func:`_factor_eigh`) is
    tried first; its null eigenvalues are exactly 0.0, and any result it
    cannot certify is discarded for the full solve.
    """
    A, norm1 = _hermitian_matrix(A)
    zero_tol = ZERO_RTOL * max(norm1, 1e-300)
    scale = max(1.0, norm1)
    found = _factor_eigh(A, zero_tol, scale) if A.shape[0] >= FACTOR_MIN_DIM else None
    if found is None:
        w, V = _checked_eigh(A, scale)
        found = w, V[:, np.abs(w) > zero_tol]
    return NonzeroEigh(*found, zero_tol, norm1)


def _pivoted_cholesky(A: np.ndarray, tol: float, max_rank: int) -> np.ndarray | None:
    """Columns f_k of a factor with A = sum_k f_k f_k^H + S, as the rows of a
    (k, N) array, built by diagonal pivoting until the remainder S has trace
    at most ``tol`` (for a PSD A, every eigenvalue of S is then at most
    ``tol``).  None when a diagonal entry of S is then below ``-tol`` (A is
    indefinite) or when the rank would pass ``max_rank``.

    The diagonal is tested for a negative entry only where the loop stops,
    with the verdict of a test at every step: an entry other than the pivot
    only decreases, and one below ``-tol`` is never the largest while the
    trace is above ``tol``, so it is never the pivot that would reset it."""
    d = A.diagonal().real.copy()  # diagonal of the remainder
    F = np.zeros((max_rank, A.shape[0]), dtype=A.dtype)
    for k in range(max_rank + 1):
        if d.sum() <= tol:
            return None if d.min() < -tol else F[:k]
        if k == max_rank:
            return None
        p = d.argmax()
        f = F[k]  # column p of the remainder, scaled; conj() of a real array is the array
        np.matmul(F[:k, p].conj(), F[:k], out=f)
        np.subtract(A[p].conj(), f, out=f)
        f /= math.sqrt(d[p])
        d -= (f * f.conj()).real
        d[p] = 0.0


def _residual_bound(n: int, theta: np.ndarray, o_norm: float, e_norm: float,
                    scale: float) -> float:
    """Upper bound on the computed ``_residual(A, V, theta)`` of an (n, r)
    basis V from o_norm = ||V^H V - I||_F and e_norm = ||A - V diag(theta)
    V^H||_F, as computed, for a Hermitian A with ||A||_1 <= ``scale`` and
    max |O_ij| <= ``OP_TOL``.

    In exact arithmetic A V - V Theta = E V + V Theta O and ||V||_2^2 =
    ||I + O||_2 <= 1 + ||O||_F, so every entry is at most sqrt(1 + ||O||_F)
    (||E||_F + theta_max ||O||_F).  The slack 10 c u sqrt(1 + ||O||_F) (r
    theta_max + scale), with c = n + r + 4 and u = 2^-53, covers to first
    order in u the rounding of O and E (sums of length n and r + 1 over
    ||V||_F^2 <= r (1 + OP_TOL) terms, each up to theta_max) and of the
    residual itself (sums of length n, each row of A at most ||A||_1 in
    absolute sum), with a factor 2 for complex products."""
    r = theta.size
    theta_max = float(theta.max(initial=0.0))
    nu = math.sqrt(1.0 + o_norm)
    slack = 10.0 * (n + r + 4) * 2.0**-53 * nu * (r * theta_max + scale)
    return nu * (e_norm + theta_max * o_norm) + slack


def _factor_eigh(A: np.ndarray, zero_tol: float, scale: float
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues and nonzero basis of the Hermitian A from its pivoted-Cholesky
    factor F, with A = F^T conj(F) up to the remainder.  The k x k Gram
    conj(F) F^T has the nonzero eigenvalues theta of F^T conj(F), and each of
    its eigenvectors u gives the unit eigenvector F^T u / sqrt(theta); the
    pairs with theta > ``zero_tol`` are kept.  The result is returned only
    when their basis is orthonormal within ``OP_TOL``, ||A - V diag(theta)
    V^H||_F is at most ``zero_tol`` (nothing non-null was dropped, and A has
    no eigenvalue below -``zero_tol``) and their residual in A is at most
    ``OP_TOL * scale``, checked in that order; the residual's A V is formed
    only when :func:`_residual_bound` does not already put it within the
    tolerance.  Otherwise, and when the factor is skipped or abandoned or the
    eigensolver fails, it is None."""
    n = A.shape[0]
    max_rank = int(FACTOR_MAX_RANK * n)
    # rank(A) >= tr(A)^2 / ||A||_F^2 (Cauchy-Schwarz over the nonzero
    # eigenvalues); past max_rank + 1, rounding aside, the factor would pass
    # the cap, so a high-rank input such as a graph Laplacian skips it
    trace = float(A.diagonal().real.sum())
    if trace * trace > (max_rank + 1) * float(np.vdot(A, A).real):
        return None
    F = _pivoted_cholesky(A, PIVOT_RTOL * zero_tol, max_rank)
    if F is None:
        return None
    try:
        theta, U = np.linalg.eigh(F.conj() @ F.T)
    except np.linalg.LinAlgError:
        return None
    keep = theta > zero_tol
    if not keep.all():
        theta, U = theta[keep], U[:, keep]
    U /= np.sqrt(theta)
    V = F.T @ U
    V_h = V.conj().T  # V.T itself for a real V, so that V^H V is numpy's a.T @ a
    O = V_h @ V - np.eye(theta.size)
    if float(np.abs(O).max(initial=0.0)) > OP_TOL:
        return None
    E = (V * theta) @ V_h
    np.subtract(A, E, out=E)
    e_norm = float(np.linalg.norm(E))
    if e_norm > zero_tol:
        return None
    tol = OP_TOL * scale
    if (_residual_bound(n, theta, float(np.linalg.norm(O)), e_norm, scale) > tol
            and _residual(A, V, theta) > tol):
        return None
    w = np.zeros(n)
    w[n - theta.size:] = theta
    return w, V


def proj_reflection(u) -> np.ndarray:
    """Reflection I - 2|u><u| about the hyperplane orthogonal to unit u."""
    u = as_vector(u)
    if not is_normalized(u):
        raise ValueError(f"reflection axis must be unit norm, got {np.linalg.norm(u):.6g}")
    return np.eye(u.size, dtype=complex) - 2.0 * np.outer(u, u.conj())


def householder_axis(y) -> tuple[np.ndarray | None, complex]:
    """Axis w = (y - c e0)/||y - c e0|| with c = exp(i arg y0) (1 when y0 = 0),
    so that (I - 2|w><w|) y = c e0 for unit y; w is None when y = c e0."""
    y = as_vector(y)
    phase = np.exp(1j * np.angle(y[0])) if abs(y[0]) > 1e-14 else 1.0
    w = y.copy()
    w[0] -= phase
    wnorm = np.linalg.norm(w)
    return (None if wnorm < 1e-14 else w / wnorm), phase

