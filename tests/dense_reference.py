"""Dense matrices of the operators the engine applies on coordinates, for tests:
the 2^(m+n) iterate and the N x N input load W; the ladder is built from powers
of the operator's dense unitary, and the phase gates come from the public gate
builders and the dense QFT and Hadamard wall below, so no engine code is
shared.  :func:`full_state` holds a full register array as a state.
:func:`hermitian_matrix`, :func:`pivoted_cholesky` and :func:`factor_eigh`
are the plain forms of the factor route's steps: one N x N |A|, a Cholesky
loop that tests the diagonal at every step, and a certificate that forms
both A V and V diag(theta) V^H; ``numerics`` must match them bit for bit."""

import math

import numpy as np

from qspectral import numerics
from qspectral.encoding import EvolutionOperator
from qspectral.qpea import PeaConfig, bias_reflection, marking_vector
from qspectral.registers import RegisterState


def _with_system(mat: np.ndarray, n: int) -> np.ndarray:
    return np.kron(mat, np.eye(2**n, dtype=complex)) if n > 0 else mat


def qft_matrix(m: int) -> np.ndarray:
    """QFT on m qubits: entry [j, k] = exp(2 pi i j k / 2^m) / sqrt(2^m)."""
    M = 2**m
    j = np.arange(M)
    return np.exp(2j * np.pi * np.outer(j, j) / M) / np.sqrt(M)


def hadamard_wall(m: int) -> np.ndarray:
    """Hadamard gate on each of m qubits: the tensor power of H."""
    H1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    out = np.array([[1.0]], dtype=complex)
    for _ in range(m):
        out = np.kron(out, H1)
    return out


def full_state(amps, m: int, n: int) -> RegisterState:
    """The state with the given 2^(m+n) amplitudes: coefficients on the
    identity columns of the system register."""
    return RegisterState(amps, m, n, (np.eye(2**n),))


def marking_reflection(m: int, n: int = 0) -> np.ndarray:
    """Reflection about the uniform nonzero-phase vector (the marking operator)."""
    return _with_system(numerics.proj_reflection(marking_vector(m)), n)


def zero_reflection(m: int, n: int) -> np.ndarray:
    """Reflection about |0...0> on all m + n qubits."""
    dim = 2 ** (m + n)
    R = np.eye(dim, dtype=complex)
    R[0, 0] = -1.0
    return R


def prepare_unitary(y) -> np.ndarray:
    """Unitary W with W|0> = |y> exactly: the Householder reflection about
    (y - c e0) normalized after a phase gate c on |0>, c = exp(i arg y0)."""
    y = numerics.as_vector(y)
    if not numerics.is_normalized(y, 1e-10):
        raise ValueError("input state must be unit norm")
    w, phase = numerics.householder_axis(y)
    R = np.eye(y.size, dtype=complex)
    if w is not None:
        R -= 2.0 * np.outer(w, w.conj())
    R[:, 0] *= phase
    return R


def ladder_matrix(evo: EvolutionOperator, m: int, sign: int = 1) -> np.ndarray:
    """Dense controlled-power ladder: block p applies U^p (U^-p = (U^dag)^p
    for ``sign`` -1) to the system, as a product of p copies of the unitary."""
    M, N = 2**m, evo.dim
    out = np.zeros((M * N, M * N), dtype=complex)
    U = evo.unitary if sign > 0 else evo.unitary.conj().T
    for p in range(M):
        out[p * N:(p + 1) * N, p * N:(p + 1) * N] = np.linalg.matrix_power(U, p)
    return out


def bpea_matrix(cfg: PeaConfig, evo: EvolutionOperator, y) -> np.ndarray:
    """Dense estimation unitary, input preparation included."""
    n = evo.dim.bit_length() - 1
    W = prepare_unitary(numerics.as_vector(y))
    if cfg.mode == "qft":
        first, last = hadamard_wall(cfg.m), qft_matrix(cfg.m).conj().T
    else:
        first = bias_reflection(cfg.m, cfg.kappa)
        last = first.conj().T
    eye_n = np.eye(2**n, dtype=complex)
    A = np.kron(first, eye_n) @ np.kron(np.eye(2**cfg.m, dtype=complex), W)
    A = ladder_matrix(evo, cfg.m) @ A
    return np.kron(last, eye_n) @ A


def iteration_matrix(cfg: PeaConfig, evo: EvolutionOperator, y) -> np.ndarray:
    """Dense amplification iterate Q for the given configuration."""
    A = bpea_matrix(cfg, evo, y)
    inner = A.conj().T if cfg.standard_grover else A
    n = evo.dim.bit_length() - 1
    Us = zero_reflection(cfg.m, n)
    Uf2 = marking_reflection(cfg.m, n)
    return A @ Us @ inner @ Uf2


def controlled_power_apply(evo: EvolutionOperator, j: int, state: RegisterState,
                           control_qubit: int) -> RegisterState:
    """Apply controlled-U^(2^j) to the system register of a two-register state."""
    if 2**state.n != evo.dim:
        raise ValueError(f"system register of {state.n} qubits does not match dim {evo.dim}")
    m = state.m
    if not 0 <= control_qubit < m:
        raise ValueError(f"control qubit {control_qubit} outside phase register of {m} qubits")
    if j < 0:
        raise ValueError(f"power exponent must be nonnegative, got {j}")
    power = np.linalg.matrix_power(evo.unitary, 2**j)
    mat = state.amplitudes.reshape(2**m, 2**state.n).copy()
    mask = (np.arange(2**m) >> (m - 1 - control_qubit)) & 1 == 1
    mat[mask] = mat[mask] @ power.T
    return full_state(mat.reshape(-1), m, state.n)


def null_space_vectors(evo: EvolutionOperator, rng, count: int) -> np.ndarray:
    """``count`` random complex vectors, as columns, with their part in
    span(``evo.nonzero_basis``) projected off: vectors U leaves as they are."""
    V = evo.nonzero_basis
    Z = rng.normal(size=(evo.dim, count)) + 1j * rng.normal(size=(evo.dim, count))
    return Z - V @ (V.conj().T @ Z)


def hermitian_matrix(A) -> tuple[np.ndarray, float]:
    """A as a checked Hermitian matrix and its ||A||_1, from one N x N |A|."""
    A = numerics.as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    magnitude = np.abs(A)
    largest = float(magnitude.max())
    if not math.isfinite(largest):
        raise ValueError("matrix has non-finite (NaN or infinite) entries")
    if numerics._hermitian_gap(A) > numerics.VEC_TOL * max(1.0, largest):
        raise ValueError("matrix is not Hermitian within tolerance")
    return A, float(magnitude.sum(axis=0).max())


def pivoted_cholesky(A: np.ndarray, tol: float, max_rank: int) -> np.ndarray | None:
    """Rows f_k with A = sum_k f_k f_k^H + S by diagonal pivoting until tr(S)
    <= tol; None on a diagonal entry of S below -tol or past max_rank."""
    d = A.diagonal().real.copy()
    F = np.zeros((max_rank, A.shape[0]), dtype=A.dtype)
    for k in range(max_rank + 1):
        if d.min() < -tol:
            return None
        if d.sum() <= tol:
            return F[:k]
        if k < max_rank:
            p = int(np.argmax(d))
            column = A[p].conj() - F[:k, p].conj() @ F[:k]
            F[k] = column / math.sqrt(d[p])
            d -= (F[k] * F[k].conj()).real
            d[p] = 0.0
    return None


def factor_eigh(A: np.ndarray, zero_tol: float, scale: float
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues and nonzero basis of A from the Gram of its pivoted-Cholesky
    factor, kept only when the residual A V - V diag(theta), the orthonormality
    and ||A - V diag(theta) V^H||_F all pass; otherwise None."""
    n = A.shape[0]
    max_rank = int(numerics.FACTOR_MAX_RANK * n)
    trace = float(A.diagonal().real.sum())
    if trace * trace > (max_rank + 1) * float(np.vdot(A, A).real):
        return None
    F = pivoted_cholesky(A, numerics.PIVOT_RTOL * zero_tol, max_rank)
    if F is None:
        return None
    try:
        theta, U = np.linalg.eigh(F.conj() @ F.T)
    except np.linalg.LinAlgError:
        return None
    keep = theta > zero_tol
    theta = theta[keep]
    V = F.T @ (U[:, keep] / np.sqrt(theta))
    VL = V * theta
    R = A @ V
    R -= VL
    D = VL @ V.conj().T
    np.subtract(A, D, out=D)
    if (float(np.abs(R).max(initial=0.0)) > numerics.OP_TOL * scale
            or float(np.abs(V.conj().T @ V - np.eye(V.shape[1])).max(initial=0.0))
            > numerics.OP_TOL
            or float(np.linalg.norm(D)) > zero_tol):
        return None
    w = np.zeros(n)
    w[n - theta.size:] = theta
    return w, V
