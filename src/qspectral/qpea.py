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

    Q = (I - 2|a><a|) (I - 2 P_f2),

so Q^t a = (-1)^t (sin((2t+1) theta) u + cos((2t+1) theta) v) with
u = P_f2 a / |P_f2 a|, v = (1 - P_f2) a / |(1 - P_f2) a| and
theta = atan2(|P_f2 a|, |(1 - P_f2) a|) (Brassard, Hoyer, Mosca, Tapp,
quant-ph/0005055).  The standard iterate is therefore read in closed form
after one forward pass: every observable is a 2x2 quadratic form in
(sin, cos)((2t+1) theta).  One simulated iterate is checked against the
closed form as a runtime invariant; the verbatim iterate is stepped, and
:func:`amplify_stepped` steps the standard one the same way as a reference.

Both iterates run on coordinates.  The estimation unitary is diagonal in
(phase index) x (eigenvector of H), and R_mark and I - 2|a><a| do not depend
on the system basis, so the standard state is a (2^m, r+1) array S on
B = [V_nz, y_null]: c = V_nz^dag y, nu = |y - V_nz c|, y_null = (y - V_nz c)/nu.
R_zero (on |0>|e0>) and the load W (on span(y, e0)) move the verbatim state
into e_null, the part of e0 off B, its third column.  Both y_null and
e_null are projected off the earlier columns twice (:func:`_extend`): one
pass leaves rounding in span V_nz that dividing by a small nu magnifies.
Every run hands out its final S as a :class:`RegisterState` on B, which
holds V_nz by reference and builds the (2^m, 2^n) register array S B^T only
when its amplitudes are read; its observables and the similarity readout
read S.

A batch of inputs shares one pipeline, and the closed form reads a chunk of
them at once: their initial states are stacked into a (k, 2^m, r+1) array of
at most ``_BATCH_ELEMENTS`` entries, and theta, u, v, the quadratic forms,
the stop rule (each input keeps its own first hit) and each final state at
its own t are computed for the whole stack.  So are the initial states and
the one simulated iterate; every input keeps its own norm checks and its own
rotation check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import numerics
from .encoding import EvolutionOperator, ladder_phase_table
from .errors import DegenerateTargetError
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


def hadamard_wall(m: int) -> np.ndarray:
    H1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    out = np.array([[1.0]], dtype=complex)
    for _ in range(m):
        out = np.kron(out, H1)
    return out


def _walsh_hadamard(mat: np.ndarray) -> np.ndarray:
    """hadamard_wall(m) @ mat, in place on a C-contiguous (2^m, ...) array:
    one butterfly pass per phase qubit, O(m 2^m) per column."""
    if not mat.flags.c_contiguous:
        raise ValueError("the Walsh-Hadamard transform needs a C-contiguous array")
    M, half = mat.shape[0], 1
    while half < M:
        pairs = mat.reshape(M // (2 * half), 2, half, -1)
        top, bottom = pairs[:, 0], pairs[:, 1]
        diff = top - bottom
        top += bottom
        bottom[...] = diff
        half *= 2
    mat *= M**-0.5
    return mat


# ---------------------------------------------------------------------------
# configuration and state functionals


@dataclass(frozen=True)
class PeaConfig:
    """Phase-estimation settings: register width, mode, bias, Grover variant."""

    m: int
    kappa: float = 0.0
    mode: str = "qft"  # qft | biased
    standard_grover: bool = True

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need m >= 1 phase qubits, got {self.m}")
        if self.kappa < 0:
            raise ValueError(f"bias coefficient must be nonnegative, got {self.kappa}")
        if self.mode not in ("qft", "biased"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _norm_sq(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def _extend(B: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of v on [B, u] and the unit column u of v off the
    orthonormal columns B, projected off them twice; a remainder the second
    pass more than halves is rounding in span B, and u is zero."""
    coords, rest, norms_sq = 0.0, v, []
    for _ in range(2):
        d = (rest.conj() @ B).conj()
        coords, rest = coords + d, rest - B @ d
        norms_sq.append(_norm_sq(rest))
    nu = math.sqrt(norms_sq[1]) if norms_sq[1] > 0.25 * norms_sq[0] else 0.0
    return np.concatenate([coords, [nu]]), rest / nu if nu else np.zeros_like(rest)


def success_probability(state: RegisterState) -> float:
    """Probability of measuring the phase register outside |0...0>."""
    return float(1.0 - state.phase_distribution()[0])


def stagnation_kappa(m: int) -> float:
    """Bias value sqrt(2^m) at which amplification stalls.

    At this bias the marked amplitude kappa/mu sits near 1/sqrt(2), the mean
    amplitude of a balanced register, so the inversion-about-the-mean neither
    grows nor shrinks it.
    """
    return float(np.sqrt(2**m))


# ---------------------------------------------------------------------------
# the estimation pipeline


class _Input(NamedTuple):
    """A checked input y and its coordinates (c, nu) on the columns
    [V_nz, y_null]; V_nz is the pipeline's, shared by every input."""

    y: np.ndarray
    coords: np.ndarray  # (r + 1,)
    y_null: np.ndarray  # (2^n,), zero when y has no null-space part


class _Pipeline:
    """Matrix-free appliers for the estimation unitary on coordinates.

    Holds the input-independent part (phase-register gates, marking vector,
    nonzero eigenspace and the ladder phase table on it), built once per
    (cfg, evo) and shared by every input loaded onto it.  On [V_nz, y_null,
    e_null] the ladder is the phase table with ones on the last two columns.
    """

    def __init__(self, cfg: PeaConfig, evo: EvolutionOperator):
        self.cfg, self.evo = cfg, evo
        self.m = cfg.m
        self.n = evo.n_qubits
        if 2**self.n != evo.dim:
            raise ValueError(f"evolution dimension {evo.dim} is not a power of two")
        M = 2**self.m
        if cfg.mode == "qft":  # Hadamard wall before the ladder, inverse QFT after it
            self.column0 = np.full(M, M**-0.5, dtype=complex)
        else:  # the bias reflection I - 2|f><f| on both sides
            self.bias = bias_vector(self.m, cfg.kappa)
            self.column0 = -2.0 * self.bias[0].conj() * self.bias
            self.column0[0] += 1.0
        self.f2 = marking_vector(self.m)
        self.nonzero_basis = evo.nonzero_basis
        self.table = np.ones((M, self.nonzero_basis.shape[1] + 2), dtype=complex)
        self.table[:, :-2] = ladder_phase_table(evo, self.m)  # y_null and e_null get phase 1
        bits = np.arange(M)[:, None] >> np.arange(self.m)[::-1]  # msb-first phase bits
        self.zero_bits = (bits & 1 == 0).astype(float)  # (2^m, m), 1 where the bit is 0

    def load(self, y) -> _Input:
        """The input checked to be a unit vector of the system dimension, with
        its coordinates on [V_nz, y_null]."""
        y = numerics.as_vector(y)
        if y.size != self.evo.dim:
            raise ValueError(f"input dim {y.size} does not match operator dim {self.evo.dim}")
        if not numerics.is_normalized(y, 1e-10):
            raise ValueError("input state must be unit norm")
        return _Input(y, *_extend(self.nonzero_basis, y))

    def span(self, inp: _Input) -> tuple[np.ndarray, tuple, tuple]:
        """A loaded input's coordinates on [V_nz, y_null, e_null], the input
        load W on them as (coordinates of e0, phase on e0, Householder axis
        or None), and the columns (V_nz, y_null, e_null)."""
        w, phase = numerics.householder_axis(inp.y)
        e0 = np.eye(1, inp.y.size, dtype=complex)[0]
        e0_coords, e_null = _extend(np.column_stack([self.nonzero_basis, inp.y_null]), e0)
        coords = np.append(inp.coords, 0.0)
        d = coords - phase * e0_coords  # y - phase e0, the axis unnormalized
        axis = None if w is None else d / np.sqrt(_norm_sq(d))
        return coords, (e0_coords, phase, axis), (self.nonzero_basis, inp.y_null, e_null)

    def initial(self, coords: np.ndarray) -> np.ndarray:
        """U_pea |0,0> on an input's coordinates, or on each row of a stack of
        them.  The input load W maps |0> to y, so the ladder acts on the
        rank-one column0 (x) y, and on the eigenvector coordinates it is the
        phase table."""
        table = self.table[:, :coords.shape[-1]]
        return self.last(self.column0[:, None] * table * coords[..., None, :])

    def last(self, mat: np.ndarray) -> np.ndarray:
        """The phase gate after the ladder, QFT^dag or the bias reflection, on
        a (2^m, R) array or a stack of them."""
        if self.cfg.mode == "qft":
            return np.fft.fft(mat, axis=-2) / np.sqrt(mat.shape[-2])
        return mat - (2.0 * self.bias)[:, None] * (self.bias.conj() @ mat)[..., None, :]

    def forward(self, mat: np.ndarray, W: tuple) -> np.ndarray:
        """U_pea on coordinates [V_nz, y_null, e_null]; ``W`` is from :meth:`span`.
        The bias reflection before the ladder is :meth:`last`, its own inverse."""
        e0, phase, axis = W
        mat = mat + np.outer(mat @ e0.conj(), (phase - 1.0) * e0)
        if axis is not None:
            mat = mat - np.outer(mat @ axis.conj(), 2.0 * axis)
        mat = _walsh_hadamard(mat) if self.cfg.mode == "qft" else self.last(mat)
        return self.last(mat * self.table)

    def iterate(self, mat: np.ndarray, a: np.ndarray, W: tuple | None) -> np.ndarray:
        """One iterate Q; ``a`` is the initial state, ``W`` the input load
        (needed by the verbatim iterate only).  The standard iterate acts on
        coordinates in any basis, and on a stack of states, each with its own a."""
        mat = mat - self.f2[:, None] * (2.0 * (self.f2.conj() @ mat))[..., None, :]  # R_mark
        if self.cfg.standard_grover:  # U_pea R_zero U_pea^dag = I - 2|a><a|
            return mat - 2.0 * (a.conj() * mat).sum(axis=(-2, -1), keepdims=True) * a
        mat = self.forward(mat, W)
        mat[0] -= 2.0 * (mat[0] @ W[0].conj()) * W[0]  # R_zero
        return self.forward(mat, W)


def phase_estimation(cfg: PeaConfig, evo: EvolutionOperator, y) -> RegisterState:
    """Run one pass of (biased) phase estimation on input |y>.

    Prepares |0>|0>, loads y on the system register, drives the phase register
    (Hadamard wall + inverse QFT in ``qft`` mode, the bias reflection and its
    adjoint in ``biased`` mode) around the controlled-power ladder, and
    returns the output register state.
    """
    pipe = _Pipeline(cfg, evo)
    inp = pipe.load(y)
    return RegisterState(pipe.initial(inp.coords), pipe.m, pipe.n,
                         (pipe.nonzero_basis, inp.y_null))


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
    # standard iterate only (None for the verbatim one): the rotation angle, the
    # count t* = round(pi/(4 theta) - 1/2) that maximizes sin^2((2t+1) theta),
    # and the distance of one simulated iterate from the closed form
    theta: float | None = None
    optimal_iterations: int | None = None
    rotation_residual: float | None = None

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
    has no component in the nonzero eigenspace.  The standard iterate is read
    in closed form (see the module docstring); the verbatim one is simulated.
    """
    return amplify_many(cfg, evo, [y], max_iter, stop_tol)[0]


def amplify_many(
    cfg: PeaConfig,
    evo: EvolutionOperator,
    ys: Sequence,
    max_iter: int = 40,
    stop_tol: float | None = 0.05,
) -> list[tuple[RegisterState, Trajectory]]:
    """:func:`amplify` each input over one shared estimation pipeline.

    Only the input load differs between inputs, so the phase-register gates,
    the ladder phase table and the nonzero eigenspace are built once, and the
    standard iterate reads a whole chunk of inputs in one closed form.  Every
    input is checked (and its fidelity target formed) before any iterate
    runs.  Each final state is held on the input's coordinates.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    pipe = _Pipeline(cfg, evo)
    loaded = [(inp, _fidelity_target(inp.coords)) for inp in map(pipe.load, ys)]
    if not cfg.standard_grover:
        return [_step(pipe, inp, target_conj, max_iter, stop_tol) for inp, target_conj in loaded]
    return list(_closed_form_runs(pipe, loaded, max_iter, stop_tol))


def amplify_stepped(
    cfg: PeaConfig,
    evo: EvolutionOperator,
    y,
    max_iter: int = 40,
    stop_tol: float | None = 0.05,
) -> tuple[RegisterState, Trajectory]:
    """:func:`amplify` with every iterate stepped, the standard one included:
    the reference its closed form is checked against.  The verbatim iterate
    runs this way in :func:`amplify` too."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    pipe = _Pipeline(cfg, evo)
    inp = pipe.load(y)
    return _step(pipe, inp, _fidelity_target(inp.coords), max_iter, stop_tol)


def _fidelity_target(coords: np.ndarray) -> np.ndarray:
    """The conjugated fidelity target (c* / |c|, 0) on an input's coordinates:
    the normalized projection of y onto the nonzero eigenspace."""
    c = coords[:-1]
    if c.size == 0:
        raise DegenerateTargetError("operator has no nonzero eigenvalues")
    amplitude = np.sqrt(_norm_sq(c))
    if amplitude <= 1e-12:
        raise DegenerateTargetError("input lies in the null space of the operator")
    return np.concatenate([c.conj(), [0.0]]) / amplitude


def _check_norm(norm_sq: float, t: int) -> None:
    """Raise unless iterate t, of squared norm ``norm_sq``, is a unit vector."""
    norm = np.sqrt(norm_sq)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm {norm:.12g} is not 1 at iteration {t}")


def _closed_form_runs(pipe: _Pipeline, loaded: list, max_iter: int,
                      stop_tol: float | None) -> Iterator[tuple[RegisterState, Trajectory]]:
    """The standard iterate's runs of loaded inputs, read in closed form a
    chunk at a time: a chunk's stacked (k, 2^m, r+1) states hold at most
    :data:`_BATCH_ELEMENTS` entries (one input at the least)."""
    if not loaded:
        return
    size = max(1, _BATCH_ELEMENTS // (2**pipe.m * loaded[0][0].coords.size))
    for start in range(0, len(loaded), size):
        chunk = loaded[start:start + size]
        A = pipe.initial(np.array([inp.coords for inp, _ in chunk]))
        targets_conj = np.array([target_conj for _, target_conj in chunk])
        finals, trajs = _rotate(pipe, A, targets_conj, max_iter, stop_tol)
        for (inp, _), final, traj in zip(chunk, finals, trajs):
            yield RegisterState(final, pipe.m, pipe.n, (pipe.nonzero_basis, inp.y_null)), traj


def _step(pipe: _Pipeline, inp: _Input, target_conj: np.ndarray, max_iter: int,
          stop_tol: float | None) -> tuple[RegisterState, Trajectory]:
    """The amplification run of one loaded input with every iterate stepped
    on coordinates [V_nz, y_null, e_null]."""
    coords, W, columns = pipe.span(inp)
    a = pipe.initial(coords)
    target_conj = np.append(target_conj, 0.0)  # zero on e_null too
    rows = []  # per iterate: P(phase 0), marked, fidelity, P0 per phase qubit

    def record(mat: np.ndarray):
        pd = phase_distribution(mat)
        _check_norm(pd.sum(), len(rows))
        rows.append([pd[0], _norm_sq(pipe.f2.conj() @ mat), _norm_sq(mat @ target_conj),
                     *(pd @ pipe.zero_bits)])

    mat = a
    record(mat)
    stopped_at = None
    for t in range(1, max_iter + 1):
        mat = pipe.iterate(mat, a, W)
        record(mat)
        if stop_tol is not None and abs(rows[-1][3] - 0.5) <= stop_tol:  # P0 of phase qubit 0
            stopped_at = t
            break
    return (RegisterState(mat, pipe.m, pipe.n, columns),
            _trajectory(pipe, np.array(rows), stopped_at))


_ROW_BLOCK = 64  # closed-form rows evaluated per step of the stop rule
_TINY = np.finfo(float).tiny
_BATCH_ELEMENTS = 2**12  # coordinate entries per (k, 2^m, r+1) stack read in closed form
ROTATION_TOL = 1e-10  # largest distance of one simulated iterate from the closed form


def _norms_sq(stack: np.ndarray) -> np.ndarray:
    """The squared norm of each complex128 array in a stack."""
    flat = stack.reshape(len(stack), -1).view(np.float64)  # real and imaginary parts
    return (flat * flat).sum(axis=-1)


def _rotate(pipe: _Pipeline, A: np.ndarray, targets_conj: np.ndarray, max_iter: int,
            stop_tol: float | None) -> tuple[np.ndarray, list[Trajectory]]:
    """The standard iterate read in closed form on the plane of u and v, for
    a stack A of initial states, each in its input's coordinates; returns
    the stack of final states in those coordinates and one trajectory per
    input.  ``targets_conj`` holds the conjugated fidelity targets.

    With s, c = sin, cos((2t+1) theta), iterate t is (-1)^t (s u + c v), so
    any squared projection |L x|^2 is the quadratic form s^2 |Lu|^2 +
    c^2 |Lv|^2 + 2 s c Re<Lu, Lv>; the coefficient columns below hold it for
    P(phase 0), the marked projection (s^2), the fidelity and each phase
    qubit's P0.  Under a stop rule, rows are evaluated a block at a time for
    the inputs that have not stopped, so an input's early stop computes only
    the block it falls in.  A degenerate plane (theta = 0 or pi/2) leaves
    the missing direction zero and the trajectory constant.
    """
    f2, k = pipe.f2, len(A)
    w = f2.conj() @ A  # P_f2 a = f2 (x) w
    v = A - f2[:, None] * w[:, None]  # (1 - P_f2) a, normalized below
    w_sq, v_sq = _norms_sq(w), _norms_sq(v)
    for norm_sq in w_sq + v_sq:  # |a|^2 = |P_f2 a|^2 + |(1 - P_f2) a|^2, as |f2| = 1
        _check_norm(norm_sq, 0)
    sin0, cos0 = np.sqrt(w_sq), np.sqrt(v_sq)
    theta = np.arctan2(sin0, cos0)
    # a zero part stays zero; a part below _TINY has theta 0 or pi/2 and no weight
    u = f2[:, None] * (w / np.maximum(sin0, _TINY)[:, None])[:, None]
    v /= np.maximum(cos0, _TINY)[:, None, None]

    quad = np.empty((k, 3, f2.size))  # per phase row: <u,u>, <v,v>, 2 Re<u,v>
    quad[:, 0], quad[:, 1] = phase_distribution(u), phase_distribution(v)
    quad[:, 2] = 2.0 * (u.conj() * v).sum(axis=-1).real
    fu, fv = u @ targets_conj[:, :, None], v @ targets_conj[:, :, None]
    forms = np.empty((k, 3, 3 + pipe.m))
    forms[:, :, 0] = quad[:, :, 0]
    forms[:, :, 1] = (1.0, 0.0, 0.0)
    forms[:, 0, 2], forms[:, 1, 2] = _norms_sq(fu), _norms_sq(fv)
    forms[:, 2, 2] = 2.0 * (fu.conj() * fv).sum(axis=(1, 2)).real
    forms[:, :, 3:] = quad @ pipe.zero_bits
    if stop_tol is None:  # one block, every input runs to max_iter
        rows, stops = list(_rows(np.arange(max_iter + 1), theta, forms)), [None] * k
    else:
        blocks, stops = [[] for _ in range(k)], [None] * k
        live = np.arange(k)  # the inputs still running
        for start in range(0, max_iter + 1, _ROW_BLOCK):
            t = np.arange(start, min(start + _ROW_BLOCK, max_iter + 1))
            block = _rows(t, theta[live], forms[live])
            hits = (t >= 1) & (np.abs(block[:, :, 3] - 0.5) <= stop_tol)
            first = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)  # first stop, or -1
            for j, block_rows, hit in zip(live.tolist(), block, first.tolist()):
                blocks[j].append(block_rows if hit < 0 else block_rows[:hit + 1])
                stops[j] = None if hit < 0 else int(t[hit])
            live = live[first < 0]
            if not live.size:
                break
        rows = [b[0] if len(b) == 1 else np.concatenate(b) for b in blocks]

    # iterate t of each input: its first (the check) and its last (the final state)
    t = np.array([1] * k + [len(r) - 1 for r in rows])
    angle = (2 * t + 1) * np.concatenate([theta, theta])
    sign = np.where(t % 2, -1.0, 1.0)  # (-1)^t
    sin_t, cos_t = (sign * np.sin(angle))[:, None, None], (sign * np.cos(angle))[:, None, None]
    Q1 = pipe.iterate(A, A, None)  # runtime invariant: one simulated iterate per input
    for norm_sq in _norms_sq(Q1):
        _check_norm(norm_sq, 1)
    residuals = np.abs(Q1 - (sin_t[:k] * u + cos_t[:k] * v)).max(axis=(1, 2))
    trajs = []
    for residual, r, stopped_at, th in zip(residuals.tolist(), rows, stops, theta.tolist()):
        if not residual <= ROTATION_TOL:
            raise ValueError(f"iterate leaves the two-plane rotation by {residual:.3g} "
                             "at iteration 1")
        t_star = int(round(np.pi / (4.0 * th) - 0.5)) if th > 0.0 else 0
        trajs.append(_trajectory(pipe, r, stopped_at, theta=th, optimal_iterations=t_star,
                                 rotation_residual=residual))
    return sin_t[k:] * u + cos_t[k:] * v, trajs


def _rows(t: np.ndarray, theta: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """Rows t of each input's trajectory: (s^2, c^2, s c) at (2t+1) theta
    against its coefficient columns ``forms``; shape (k, t.size, columns)."""
    angle = (2 * t + 1) * theta[:, None]
    s, c = np.sin(angle), np.cos(angle)
    terms = np.empty((theta.size, t.size, 3))
    np.multiply(s, s, out=terms[..., 0])
    np.multiply(c, c, out=terms[..., 1])
    np.multiply(s, c, out=terms[..., 2])
    return terms @ forms


def _trajectory(pipe: _Pipeline, rows: np.ndarray, stopped_at: int | None,
                **rotation) -> Trajectory:
    """A Trajectory from per-iterate rows of P(phase 0), marked projection,
    fidelity and the phase-qubit P0s."""
    return Trajectory(
        iterations=np.arange(rows.shape[0]),
        success_prob=1.0 - rows[:, 0],
        marked_prob=rows[:, 1],
        fidelity=rows[:, 2],
        phase_marginals=rows[:, 3:],
        stopped_at=stopped_at,
        mode=pipe.cfg.mode,
        kappa=pipe.cfg.kappa,
        **rotation,
    )
