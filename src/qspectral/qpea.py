"""Phase estimation and amplitude amplification on two-register statevectors.

The phase register can be driven either by the textbook QFT route or by a
single reflection about a biased superposition vector; the bias coefficient
trades initial success probability against the number of amplification
iterations.  Amplification applies the iterate

    Q = U_pea * R_zero * U_pea * R_mark

verbatim; since the estimation circuit is not self-inverse, a
``standard_grover`` switch replaces the inner (first-acting) application with
its adjoint, which restores the textbook two-plane rotation.  With
a = U_pea |0,0> and P_f2 = |f2><f2| (x) I that iterate is

    Q = (I - 2|a><a|) (I - 2 P_f2)

and is applied as these two rank-one reflections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics
from .classical import span_projection
from .encoding import EvolutionOperator, ladder_phase_table, ladder_shift
from .registers import NORM_TOL, RegisterState, phase_distribution


# ---------------------------------------------------------------------------
# phase-register vectors and reflections


def bias_vector(m: int, kappa: float) -> np.ndarray:
    """Biased superposition (kappa, 1, ..., 1) / sqrt(kappa^2 + 2^m - 1)."""
    if m < 1:
        raise ValueError(f"need m >= 1 phase qubits, got {m}")
    if kappa < 0:
        raise ValueError(f"bias coefficient must be nonnegative, got {kappa}")
    M = 2**m
    f = np.ones(M, dtype=complex)
    f[0] = kappa
    return f / np.sqrt(kappa**2 + M - 1)


def marking_vector(m: int) -> np.ndarray:
    """Uniform superposition over the 2^m - 1 nonzero phase states."""
    M = 2**m
    f = np.ones(M, dtype=complex)
    f[0] = 0.0
    return f / np.sqrt(M - 1)


def bias_reflection(m: int, kappa: float) -> np.ndarray:
    """Reflection about the bias vector on the phase register."""
    return numerics.proj_reflection(bias_vector(m, kappa))


def qft_matrix(m: int) -> np.ndarray:
    M = 2**m
    j = np.arange(M)
    return np.exp(2j * np.pi * np.outer(j, j) / M) / np.sqrt(M)


def hadamard_wall(m: int) -> np.ndarray:
    H1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    out = np.array([[1.0]], dtype=complex)
    for _ in range(m):
        out = np.kron(out, H1)
    return out


def prepare_unitary(y) -> np.ndarray:
    """Unitary W with W|0> = |y> exactly.

    For real y with y[0] != 1 this is the Householder reflection about
    (y - e0) normalized; a complex leading amplitude is absorbed by a phase
    gate on |0> so the mapping stays exact.
    """
    y = numerics.as_vector(y)
    if not numerics.is_normalized(y, 1e-10):
        raise ValueError("input state must be unit norm")
    w, phase = numerics.householder_axis(y)
    R = np.eye(y.size, dtype=complex)
    if w is not None:
        R -= 2.0 * np.outer(w, w.conj())
    if phase != 1.0:
        R[:, 0] *= phase
    return R


# ---------------------------------------------------------------------------
# configuration and state functionals


@dataclass(frozen=True)
class PeaConfig:
    """Phase-estimation settings: register width, mode, bias, Grover variant."""

    m: int
    kappa: float = 0.0
    mode: str = "qft"  # qft | biased
    standard_grover: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need m >= 1 phase qubits, got {self.m}")
        if self.kappa < 0:
            raise ValueError(f"bias coefficient must be nonnegative, got {self.kappa}")
        if self.mode not in ("qft", "biased"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _norm_sq(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def success_probability(state: RegisterState) -> float:
    """Probability of measuring the phase register outside |0...0>."""
    return float(1.0 - phase_distribution(state.as_matrix())[0])


def stagnation_kappa(m: int) -> float:
    """Bias value sqrt(2^m) at which amplification stalls.

    At this bias the marked amplitude kappa/mu sits near 1/sqrt(2), the mean
    amplitude of a balanced register, so the inversion-about-the-mean neither
    grows nor shrinks it.
    """
    return float(np.sqrt(2**m))


# ---------------------------------------------------------------------------
# the estimation pipeline


class _Pipeline:
    """Matrix-free appliers for the estimation unitary on (2^m, 2^n) arrays.

    Holds the input-independent part (phase-register gates, marking vector,
    nonzero eigenspace and the ladder phase table on it, less one), built once
    per (cfg, evo) and shared by every input loaded onto it.
    """

    def __init__(self, cfg: PeaConfig, evo: EvolutionOperator):
        self.cfg, self.evo = cfg, evo
        self.m = cfg.m
        self.n = evo.n_qubits
        if 2**self.n != evo.dim:
            raise ValueError(f"evolution dimension {evo.dim} is not a power of two")
        if cfg.mode == "qft":  # phase-register unitaries applied before and after the ladder
            self.first, self.last = hadamard_wall(self.m), qft_matrix(self.m).conj().T
        else:
            self.first = bias_reflection(self.m, cfg.kappa)
            self.last = self.first.conj().T  # the reflection is self-adjoint
        self.f2 = marking_vector(self.m)
        self.nonzero_basis = evo.nonzero_basis
        self.shift = ladder_phase_table(evo, self.m) - 1.0
        bits = np.arange(2**self.m)[:, None] >> np.arange(self.m)[::-1]  # msb-first phase bits
        self.zero_bits = (bits & 1 == 0).astype(float)  # (2^m, m), 1 where the bit is 0

    def check(self, y) -> np.ndarray:
        """The input as a vector, checked to be a unit vector of the system dimension."""
        y = numerics.as_vector(y)
        if y.size != self.evo.dim:
            raise ValueError(f"input dim {y.size} does not match operator dim {self.evo.dim}")
        if not numerics.is_normalized(y, 1e-10):
            raise ValueError("input state must be unit norm")
        return y

    def initial(self, y: np.ndarray) -> np.ndarray:
        """U_pea |0,0> for a checked input; the input load W maps |0> to y, so
        the first stage is first[:, 0] (x) y."""
        return self.last @ self.ladder(np.outer(self.first[:, 0], y))

    def ladder(self, mat: np.ndarray) -> np.ndarray:
        return ladder_shift(mat, self.nonzero_basis, self.shift)

    def forward(self, mat: np.ndarray, W: np.ndarray) -> np.ndarray:
        mat = mat @ W.T
        mat = self.first @ mat
        mat = self.ladder(mat)
        return self.last @ mat

    def iterate(self, mat: np.ndarray, a: np.ndarray, W: np.ndarray | None) -> np.ndarray:
        """One iterate Q; ``a`` is the initial state, ``W`` the input load
        (needed by the verbatim iterate only)."""
        mat = mat - self.f2[:, None] * (2.0 * (self.f2.conj() @ mat))  # R_mark
        if self.cfg.standard_grover:  # U_pea R_zero U_pea^dag = I - 2|a><a|
            return mat - 2.0 * np.vdot(a, mat) * a
        mat = self.forward(mat, W)
        mat[0, 0] = -mat[0, 0]  # R_zero
        return self.forward(mat, W)

    def to_state(self, mat: np.ndarray) -> RegisterState:
        return RegisterState(mat.reshape(-1), self.m, self.n)


def phase_estimation(cfg: PeaConfig, evo: EvolutionOperator, y) -> RegisterState:
    """Run one pass of (biased) phase estimation on input |y>.

    Prepares |0>|0>, loads y on the system register, drives the phase register
    (Hadamard wall + inverse QFT in ``qft`` mode, the bias reflection and its
    adjoint in ``biased`` mode) around the controlled-power ladder, and
    returns the output register state.
    """
    pipe = _Pipeline(cfg, evo)
    return pipe.to_state(pipe.initial(pipe.check(y)))


# ---------------------------------------------------------------------------
# amplification


@dataclass
class Trajectory:
    """Per-iteration record of one amplification run.

    Iteration 0 is the state right after the first estimation pass, before
    any amplification iterate is applied.
    """

    iterations: np.ndarray
    success_prob: np.ndarray
    marked_prob: np.ndarray
    fidelity: np.ndarray
    phase_marginals: np.ndarray  # (T, m) P0 of each phase qubit
    stopped_at: int | None = None
    mode: str = ""
    kappa: float = 0.0

    def __len__(self) -> int:
        return self.iterations.size

    @property
    def qubit0_p0(self) -> np.ndarray:
        return self.phase_marginals[:, 0]

    @property
    def peak_fidelity_iteration(self) -> int:
        return int(np.argmax(self.fidelity))

    @property
    def peak_fidelity(self) -> float:
        return float(np.max(self.fidelity))

    def first_fidelity_peak(self) -> int:
        """First running-maximum iteration that the next step falls below."""
        f = self.fidelity
        best = -np.inf
        for t in range(len(f) - 1):
            if f[t] >= best and f[t] > f[t + 1]:
                return t
            best = max(best, f[t])
        return len(f) - 1


def amplify(
    cfg: PeaConfig,
    evo: EvolutionOperator,
    y,
    max_iter: int = 40,
    stop_tol: float | None = 0.05,
) -> tuple[RegisterState, Trajectory]:
    """Amplify the nonzero-eigenvalue component of the estimation output.

    Applies the iterate Q up to ``max_iter`` times, recording success
    probability, marked-vector projection, fidelity against the normalized
    projection of y onto the nonzero eigenspace, and every phase qubit's
    marginal.  When ``stop_tol`` is set, iteration stops once the top phase
    qubit's P0 is within ``stop_tol`` of 1/2.  Raises before iterating if y
    has no component in the nonzero eigenspace.
    """
    return amplify_many(cfg, evo, [y], max_iter, stop_tol)[0]


def amplify_many(
    cfg: PeaConfig,
    evo: EvolutionOperator,
    ys: Sequence,
    max_iter: int = 40,
    stop_tol: float | None = 0.05,
) -> list[tuple[RegisterState, Trajectory]]:
    """:func:`amplify` each input in turn over one shared estimation pipeline.

    Only the input load differs between inputs, so the phase-register gates,
    the ladder phase table and the nonzero eigenspace are built once.  Every
    input is checked (and its fidelity target formed) before any iterate runs.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    pipe = _Pipeline(cfg, evo)
    inputs = []
    for y in ys:
        y = pipe.check(y)
        inputs.append((y, span_projection(pipe.nonzero_basis, y)[0].conj()))
    return [_amplify_checked(pipe, y, target_conj, max_iter, stop_tol)
            for y, target_conj in inputs]


def _amplify_checked(pipe: _Pipeline, y: np.ndarray, target_conj: np.ndarray, max_iter: int,
                     stop_tol: float | None) -> tuple[RegisterState, Trajectory]:
    """The iterate loop of one checked input; ``target_conj`` is its conjugated
    fidelity target."""
    a = pipe.initial(y)
    W = None if pipe.cfg.standard_grover else prepare_unitary(y)
    rows = []  # per iterate: success, marked, fidelity, P0 per phase qubit

    def record(t: int, mat: np.ndarray):
        pd = phase_distribution(mat)
        norm = np.sqrt(pd.sum())
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm:.12g} is not 1 at iteration {t}")
        rows.append([1.0 - pd[0], _norm_sq(pipe.f2.conj() @ mat), _norm_sq(mat @ target_conj),
                     *(pd @ pipe.zero_bits)])

    mat = a
    record(0, mat)
    stopped_at = None
    for t in range(1, max_iter + 1):
        mat = pipe.iterate(mat, a, W)
        record(t, mat)
        if stop_tol is not None and abs(rows[-1][3] - 0.5) <= stop_tol:  # P0 of phase qubit 0
            stopped_at = t
            break

    rows = np.array(rows).T
    traj = Trajectory(
        iterations=np.arange(rows.shape[1]),
        success_prob=rows[0],
        marked_prob=rows[1],
        fidelity=rows[2],
        phase_marginals=rows[3:].T,
        stopped_at=stopped_at,
        mode=pipe.cfg.mode,
        kappa=pipe.cfg.kappa,
    )
    return pipe.to_state(mat), traj
