"""Dense linear algebra kernel.

Everything else in the package is built on (and verified against) these
routines: Hermitian eigendecomposition, the induced 1-norm and Householder-style
reflections.  All functions are pure and operate on plain numpy arrays.  Matrices keep their own
arithmetic: a real input stays float64 (so a real symmetric matrix gets a real
eigendecomposition) and a complex one is complex128.  State vectors are
always complex.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

OP_TOL = 1e-10   # default tolerance for operator identities (unitarity etc.)
VEC_TOL = 1e-12  # default tolerance for vector norms


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
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    scale = max(1.0, float(np.abs(A).max())) if A.size else 1.0
    return float(np.abs(A - A.conj().T).max()) <= tol * scale


def is_unitary(A, tol: float = OP_TOL) -> bool:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    return float(np.max(np.abs(A.conj().T @ A - np.eye(A.shape[0])))) <= tol


def matrix_1norm(A) -> float:
    """Induced 1-norm: maximum absolute column sum."""
    A = as_matrix(A)
    return float(np.abs(A).sum(axis=0).max())


def hermitian_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted
    ascending and orthonormal eigenvectors as columns, real for a real
    (symmetric) input and complex otherwise.  The input must be
    Hermitian (checked); the residual ``A V - V diag(w)`` is verified against
    ``OP_TOL * max(1, ||A||_1)`` after the solve.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if not is_hermitian(A):
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    scale = max(1.0, matrix_1norm(A))
    R = A @ V
    R -= V * w
    residual = float(np.abs(R).max())
    if residual > OP_TOL * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {OP_TOL:.1e} * {scale:.3e}"
        )
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

