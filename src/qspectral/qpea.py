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
holds V_nz by reference and builds the register array S B^T only when its
amplitudes are read; its observables and the similarity readout read S.
Nothing here reads the register layout, so an operator of any dimension N
runs: the state's columns have N rows.

Every call on one operator and m shares one engine (V_nz, the ladder phase
table, f2 and the phase-row weights): it is built on the first call and kept
on the operator, and it holds the operator's arrays but no reference back,
so the operator is still freed with its last reference.  The engine is
read-only; what a call loads stays in the call.  Within a call each input
may carry its own config: configs may differ in mode and kappa, which only
pick the phase gate (one pipeline per config object over the shared engine;
the gate's arrays are cached per (m, mode, kappa)), but not in m or the
iterate.  Every amplify entry takes one check-and-load path: each input is
loaded (checked for its dimension and unit norm) on its own, and once all
are loaded they are projected onto [V_nz, y_null] together; a real V_nz
multiplies the real and imaginary parts of an input as the two columns of
one real product, so it is never cast to complex.  An initial state is its
pipeline's U_pea |0,0> table times the input's coordinates (c, nu).  The
closed form reads a chunk of inputs at once: their initial states are
stacked into a (k, 2^m, r+1) array of at most ``_BATCH_ELEMENTS`` entries,
and theta, the quadratic forms, the stop rule (each input keeps its own
first hit), the one simulated iterate and each final state at its own t are
computed for the whole stack.  Every check (nothing to amplify, norm,
rotation) is one array test over the inputs that raises the error of the
first failing one.  What stays per input is its load call, its trajectory,
with its own mode and kappa, and its RegisterState.

No product of a batch mixes inputs: the projection and every read of the
stack are stacks of per-input products, not one (N x K) GEMM, whose column j
can differ in its last bits from the product of input j alone.  So each run
of a batch is bit for bit the run of its input alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import numerics
from .encoding import EvolutionOperator, check_phase_qubits, ladder_phase_table
from .errors import DegenerateTargetError
from .registers import NORM_TOL, RegisterState, phase_distribution


# ---------------------------------------------------------------------------
# phase-register vectors and reflections


def bias_vector(m: int, kappa: float) -> np.ndarray:
    """Biased superposition (kappa, 1, ..., 1) / sqrt(kappa^2 + 2^m - 1)."""
    check_phase_qubits(m)
    _check_kappa(kappa)
    M = 2**m
    f = np.ones(M, dtype=complex)
    f[0] = kappa
    return f / math.hypot(kappa, math.sqrt(M - 1))  # squares nothing: no overflow


def marking_vector(m: int) -> np.ndarray:
    """Uniform superposition over the 2^m - 1 nonzero phase states: the bias
    vector at kappa = 0."""
    return bias_vector(m, 0.0)


def bias_reflection(m: int, kappa: float) -> np.ndarray:
    """Reflection about the bias vector on the phase register."""
    return numerics.proj_reflection(bias_vector(m, kappa))


def _walsh_hadamard(mat: np.ndarray) -> np.ndarray:
    """H^{(x)m} @ mat, the Hadamard gate on each of the m phase qubits, in
    place on a C-contiguous (2^m, ...) array: one butterfly pass per phase
    qubit, O(m 2^m) per column."""
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
        check_phase_qubits(self.m)
        _check_kappa(self.kappa)
        if self.mode not in ("qft", "biased"):
            raise ValueError(f"mode must be one of ('qft', 'biased'), got {self.mode!r}")


def _check_kappa(kappa: float) -> None:
    """Refuse a bias coefficient that is a bool or not finite and nonnegative."""
    if isinstance(kappa, (bool, np.bool_)) or not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")


def _norm_sq(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def _extend(B: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row v of a (k, n) stack: its coordinates on [B, u] and the
    unit column u of v off the orthonormal columns B, projected off them
    twice; a remainder the second pass more than halves is rounding in
    span B, and u is zero.  A real B works on the real and imaginary parts
    of v as the two columns of an (n, 2) real array, so it is never cast to
    complex.  Each row's products are its own, whatever the stack holds."""
    if B.dtype == np.float64:
        rest = np.ascontiguousarray(V).view(np.float64).reshape(len(V), -1, 2)
        d = B.T @ rest
        rest = rest - B @ d
        norm0_sq = np.add.reduce(rest * rest, axis=(1, 2))
        d2 = B.T @ rest
        rest -= B @ d2
        norm_sq = np.add.reduce(rest * rest, axis=(1, 2))
        coords, rest = (d + d2).view(complex)[..., 0], rest.view(complex)[..., 0]
    else:  # rows as (1, n) matrices, so that each row's products are its own
        rest = V[:, None, :]
        d = (rest.conj() @ B).conj()
        rest = rest - d @ B.T
        norm0_sq = _norms_sq(rest)
        d2 = (rest.conj() @ B).conj()
        rest -= d2 @ B.T
        norm_sq = _norms_sq(rest)
        coords, rest = (d + d2)[:, 0], rest[:, 0]
    keep = norm_sq > 0.25 * norm0_sq
    nu = np.sqrt(norm_sq, out=np.zeros(len(V)), where=keep)
    return (np.concatenate([coords, nu[:, None]], axis=1),
            np.divide(rest, nu[:, None], out=np.zeros(rest.shape, complex), where=keep[:, None]))


def success_probability(state: RegisterState) -> float:
    """Probability of measuring the phase register outside |0...0>."""
    return float(1.0 - state.phase_distribution()[0])


def stagnation_kappa(m: int) -> float:
    """The near-stall bias sqrt(2^m), at which amplification barely moves.

    The standard iterate's rotation angle theta has sin^2 theta =
    G(kappa^2/K) Lambda, with K = 2^m - 1, G(x) = 4x(1 - x)^2 / (1 + x)^4 and
    Lambda = sum_j |c_j|^2 |1 - S_j/K|^2 over the eigenpairs (phi_j, v_j),
    c_j = <v_j|y> and S_j = sum_{p=1}^{K} exp(2 pi i p phi_j); kappa enters G
    alone.  The exact stall is G = 0, at kappa = sqrt(2^m - 1); at sqrt(2^m), G is
    about 1/(4K^2) and theta small but not 0.  The value is 2^(m//2), times
    sqrt(2) for an odd m, in float arithmetic; an m whose value is past the
    float range is refused.
    """
    check_phase_qubits(m)
    half, odd = divmod(int(m), 2)
    try:
        return math.ldexp(math.sqrt(2.0**odd), half)
    except OverflowError:
        raise ValueError(f"sqrt(2^m) is past the float range at m={m}") from None


# ---------------------------------------------------------------------------
# the estimation pipeline


class _Inputs(NamedTuple):
    """Inputs projected together by :meth:`_Engine.project`, one row per
    input: y (checked by :meth:`_Engine.load`), its coordinates (c, nu) on
    the columns [V_nz, y_null] (V_nz is the engine's, shared by every input)
    and y_null, zero when y has no null-space part."""

    ys: np.ndarray  # (K, N)
    coords: np.ndarray  # (K, r+1)
    y_null: np.ndarray  # (K, N)


class _Engine:
    """The part of the estimation pipeline that depends on neither the input
    nor the phase gate: the nonzero eigenspace, the ladder phase table on it,
    the marking vector and the phase-row weights, for m phase qubits and an
    operator of dimension N.

    Built on the first call for an operator and m (:func:`_engine`) and kept
    on the operator, so every later call on it, of any config, shares it;
    every config's :class:`_Pipeline` and every input is read against it.  It
    holds the operator's arrays but no reference to the operator, and no
    per-call state: its arrays are read-only.  On [V_nz, y_null, e_null] the
    ladder is the phase table with ones on the last two columns.
    """

    def __init__(self, evo: EvolutionOperator, m: int):
        self.m, self.dim = m, evo.dim
        self.f2, self.observables, self.marked_observables = _phase_register_tables(m)
        self.nonzero_basis = evo.nonzero_basis
        self.table = np.ones((2**m, self.nonzero_basis.shape[1] + 2), dtype=complex)
        self.table[:, :-2] = ladder_phase_table(evo, m)  # y_null and e_null get phase 1
        self.table.flags.writeable = False

    def load(self, y) -> np.ndarray:
        """The input checked to be a unit vector of the system dimension;
        :meth:`project` gives it its coordinates."""
        y = numerics.as_vector(y)
        if y.size != self.dim:
            raise ValueError(f"input dim {y.size} does not match operator dim {self.dim}")
        if not numerics.is_normalized(y, 1e-10):
            raise ValueError("input state must be unit norm")
        return y

    def project(self, ys: Sequence[np.ndarray]) -> _Inputs:
        """Loaded inputs with their coordinates and y_null, all from one
        stacked projection."""
        stack = np.array(ys)
        return _Inputs(stack, *_extend(self.nonzero_basis, stack))

    def span(self, y: np.ndarray, coords: np.ndarray,
             y_null: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
        """A loaded input's coordinates on [V_nz, y_null, e_null], the input
        load W on them as (coordinates of e0, phase on e0, Householder axis
        or None), and the columns (V_nz, y_null, e_null); ``coords`` and
        ``y_null`` are the input's row of :meth:`project`."""
        w, phase = numerics.householder_axis(y)
        e0 = np.eye(1, y.size, dtype=complex)[0]
        (e0_coords,), (e_null,) = _extend(np.column_stack([self.nonzero_basis, y_null]),
                                          e0[None])
        coords = np.append(coords, 0.0)
        d = coords - phase * e0_coords  # y - phase e0, the axis unnormalized
        axis = None if w is None else d / np.sqrt(_norm_sq(d))
        return coords, (e0_coords, phase, axis), (self.nonzero_basis, y_null, e_null)


@functools.lru_cache(maxsize=16)
def _phase_register_tables(m: int) -> tuple[np.ndarray, ...]:
    """The read-only tables of an engine that depend on m alone: the marking
    vector f2 (real), and the two phase-register columns of a trajectory row
    as (2^m, 2) weights on the phase rows, with their values on f2: success
    (phase != 0) and qubit 0's P0 (the top, msb-first qubit in |0>, which is
    phase < 2^m / 2)."""
    M = 2**m
    f2 = marking_vector(m).real.copy()
    phases = np.arange(M)
    observables = np.column_stack([phases > 0, phases < M // 2]).astype(float)
    tables = (f2, observables, f2**2 @ observables)
    for array in tables:
        array.flags.writeable = False
    return tables


def _engine(evo: EvolutionOperator, m: int) -> _Engine:
    """The engine of ``evo`` for m phase qubits: built on the first call and
    kept in the operator's ``engines`` for as long as the operator lives."""
    engine = evo.engines.get(m)
    if engine is None:
        engine = evo.engines[m] = _Engine(evo, m)
    return engine


class _Pipeline:
    """Matrix-free appliers for the estimation unitary of one config on
    coordinates: the config's phase gate (QFT or bias reflection) over a
    shared :class:`_Engine` of the same m.  ``initial_table`` is U_pea |0,0>
    on each column of [V_nz, y_null, e_null] (the input load W maps |0> to y,
    so the ladder acts on column0 (x) y as the phase table); an initial state
    is that table times the input's coordinates, column by column."""

    def __init__(self, cfg: PeaConfig, engine: _Engine):
        self.cfg, self.engine = cfg, engine
        column0, self.bias_conj, self.two_bias = _phase_gate(cfg.m, cfg.mode, cfg.kappa)
        self.initial_table = self.last(column0 * engine.table)

    def last(self, mat: np.ndarray) -> np.ndarray:
        """The phase gate after the ladder, QFT^dag or the bias reflection, on
        a (2^m, R) array or a stack of them."""
        if self.cfg.mode == "qft":
            return np.fft.fft(mat, axis=-2) / math.sqrt(mat.shape[-2])
        return mat - self.two_bias * (self.bias_conj @ mat)[..., None, :]

    def forward(self, mat: np.ndarray, W: tuple) -> np.ndarray:
        """U_pea on coordinates [V_nz, y_null, e_null]; ``W`` is from
        :meth:`_Engine.span`.  The bias reflection before the ladder is
        :meth:`last`, its own inverse."""
        e0, phase, axis = W
        mat = mat + np.outer(mat @ e0.conj(), (phase - 1.0) * e0)
        if axis is not None:
            mat = mat - np.outer(mat @ axis.conj(), 2.0 * axis)
        mat = _walsh_hadamard(mat) if self.cfg.mode == "qft" else self.last(mat)
        return self.last(mat * self.engine.table)

    def iterate(self, mat: np.ndarray, a: np.ndarray, W: tuple | None) -> np.ndarray:
        """One iterate Q; ``a`` is the initial state, ``W`` the input load
        (needed by the verbatim iterate only).  The standard iterate reads no
        phase gate: it acts on coordinates in any basis, and on a stack of
        states, each with its own a and of any config with this m."""
        engine = self.engine
        mat = mat - engine.f2[:, None] * (2.0 * (engine.f2 @ mat))[..., None, :]  # R_mark
        if self.cfg.standard_grover:  # U_pea R_zero U_pea^dag = I - 2|a><a|
            return mat - 2.0 * np.add.reduce(a.conj() * mat, axis=(-2, -1), keepdims=True) * a
        mat = self.forward(mat, W)
        mat[0] -= 2.0 * (mat[0] @ W[0].conj()) * W[0]  # R_zero
        return self.forward(mat, W)


@functools.lru_cache(maxsize=64)
def _phase_gate(m: int, mode: str,
                kappa: float) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """A phase gate's read-only arrays: the column of |0> under the gate
    before the ladder, as a (2^m, 1) column, and for the bias reflection
    I - 2|f><f| the conjugate of f and the column 2 f (None for the QFT).
    They depend on the config alone, so every pipeline of one (m, mode,
    kappa) shares them.  Equal keys give the same bits: an int kappa is taken
    as the equal float, and -0.0 as 0.0 (dividing by the norm drops its sign)."""
    M = 2**m
    if mode == "qft":  # Hadamard wall before the ladder, inverse QFT after it
        column0, bias_conj, two_bias = np.full(M, M**-0.5, dtype=complex), None, None
    else:  # the bias reflection on both sides
        bias = bias_vector(m, kappa)
        column0 = -2.0 * bias[0].conj() * bias
        column0[0] += 1.0
        bias_conj, two_bias = bias.conj(), (2.0 * bias)[:, None]
        bias_conj.flags.writeable = two_bias.flags.writeable = False
    column0 = column0[:, None]
    column0.flags.writeable = False
    return column0, bias_conj, two_bias


def phase_estimation(cfg: PeaConfig, evo: EvolutionOperator, y) -> RegisterState:
    """Run one pass of (biased) phase estimation on input |y>.

    Prepares |0>|0>, loads y on the system register, drives the phase register
    (Hadamard wall + inverse QFT in ``qft`` mode, the bias reflection and its
    adjoint in ``biased`` mode) around the controlled-power ladder, and
    returns the output register state.
    """
    engine = _engine(evo, cfg.m)
    inputs = engine.project([engine.load(y)])
    a = _Pipeline(cfg, engine).initial_table[:, :-1] * inputs.coords[0]  # (c, nu): no e_null
    return RegisterState(a, cfg.m, (engine.nonzero_basis, inputs.y_null[0]))


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
    qubit0_p0: np.ndarray  # P0 of the top phase qubit, which the stop rule reads
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


def amplify(cfg: PeaConfig, evo: EvolutionOperator, y, max_iter: int = 40,
            stop_tol: float | None = 0.05) -> tuple[RegisterState, Trajectory]:
    """Amplify the nonzero-eigenvalue component of the estimation output.

    Applies the iterate Q up to ``max_iter`` times, recording success
    probability, marked-vector projection, fidelity against the normalized
    projection of y onto the nonzero eigenspace, and the top phase qubit's
    P0.  When ``stop_tol`` is set, iteration stops once that P0 is within
    ``stop_tol`` of 1/2.  Raises before iterating if y has no component in
    the nonzero eigenspace.  The standard iterate is read in closed form (see
    the module docstring); the verbatim one is simulated.
    """
    return amplify_many(cfg, evo, [y], max_iter, stop_tol)[0]


def amplify_many(cfg: PeaConfig | Sequence[PeaConfig], evo: EvolutionOperator, ys: Sequence,
                 max_iter: int = 40, stop_tol: float | None = 0.05
                 ) -> list[tuple[RegisterState, Trajectory]]:
    """:func:`amplify` each input over one shared estimation engine.

    ``cfg`` is one config for every input, or a sequence of one config per
    input: the configs may differ in mode and kappa, but not in m or
    ``standard_grover``.  The nonzero eigenspace, the ladder phase table and
    the marking vector are built once, each config object adds only its
    phase gate, and the standard iterate reads a whole chunk of inputs, of
    any mix of configs, in one closed form; the verbatim one steps each input.
    Every input is loaded once per input object however often it is passed,
    all of them are projected onto the eigenspace together, and every check
    runs before any iterate; a failing batch raises the error of its first
    failing input.  Each final state is held on the input's coordinates.
    """
    runs, inputs = _load(cfg, evo, ys, max_iter)
    if not runs:
        return []
    if not runs[0][0].cfg.standard_grover:
        return [_step(pipe, inputs, row, max_iter, stop_tol) for pipe, row in runs]
    return _closed_form_runs(runs, inputs, max_iter, stop_tol)


def amplify_stepped(cfg: PeaConfig, evo: EvolutionOperator, y, max_iter: int = 40,
                    stop_tol: float | None = 0.05) -> tuple[RegisterState, Trajectory]:
    """:func:`amplify` with every iterate stepped, the standard one included:
    the reference its closed form is checked against.  The verbatim iterate
    runs this way in :func:`amplify` too."""
    [(pipe, row)], inputs = _load(cfg, evo, [y], max_iter)
    return _step(pipe, inputs, row, max_iter, stop_tol)


def _load(cfg: PeaConfig | Sequence[PeaConfig], evo: EvolutionOperator, ys: Sequence,
          max_iter: int) -> tuple[list, _Inputs | None]:
    """The checks and the load of every amplify entry (see :func:`amplify_many`):
    one (pipeline, row of the projected inputs) per input, and those inputs."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    ys = list(ys)
    cfgs = [cfg] * len(ys) if isinstance(cfg, PeaConfig) else list(cfg)
    if len(cfgs) != len(ys):
        raise ValueError(f"{len(cfgs)} configs for {len(ys)} inputs")
    if len({(c.m, c.standard_grover) for c in cfgs}) > 1:
        raise ValueError("the configs of one call must share m and standard_grover")
    if not cfgs:
        return [], None
    engine = _engine(evo, cfgs[0].m)
    loaded = {}  # a load per input object, by its row of the projection
    try:
        for y in ys:
            if id(y) not in loaded:
                loaded[id(y)] = engine.load(y)
    except ValueError:  # an earlier input with nothing to amplify fails first
        if loaded:
            _check_targets(engine.project(list(loaded.values())).coords)
        raise
    inputs = engine.project(list(loaded.values()))
    _check_targets(inputs.coords)
    rows = {key: row for row, key in enumerate(loaded)}
    pipes = {}  # a pipeline per config object
    for c in cfgs:
        if id(c) not in pipes:
            pipes[id(c)] = _Pipeline(c, engine)
    return [(pipes[id(c)], rows[id(y)]) for c, y in zip(cfgs, ys)], inputs


def _check_targets(coords: np.ndarray) -> None:
    """Raise unless every projected input, a row (c, nu) of ``coords``, has a
    projection onto the nonzero eigenspace to amplify, one array test over
    all of them."""
    if coords.shape[1] == 1:
        raise DegenerateTargetError("operator has no nonzero eigenvalues")
    if np.count_nonzero(_norms_sq(coords[:, :-1]) > 1e-24) < len(coords):  # |c| > 1e-12
        raise DegenerateTargetError("input lies in the null space of the operator")


def _fidelity_targets(coords: np.ndarray) -> np.ndarray:
    """The conjugated fidelity targets (c* / |c|, 0), one per row of a stack
    of input coordinates (c, nu): the normalized projection of each input
    onto the nonzero eigenspace."""
    targets = coords.conj()
    targets[:, -1] = 0.0
    targets /= np.sqrt(_norms_sq(targets))[:, None]
    return targets


def _check_norm(norm_sq, t: int) -> None:
    """Raise unless iterate t, of squared norm ``norm_sq``, is a unit vector;
    ``norm_sq`` may hold one value per input, and the first failing input's
    norm is named.  |norm - 1| <= NORM_TOL is tested on the square, as
    |norm^2 - (1 + NORM_TOL^2)| <= 2 NORM_TOL."""
    ok = np.abs(norm_sq - (1.0 + NORM_TOL**2)) <= 2.0 * NORM_TOL
    if np.count_nonzero(ok) < ok.size:
        norm = math.sqrt(np.ravel(norm_sq)[np.argmin(ok)])
        raise ValueError(f"state norm {norm:.12g} is not 1 at iteration {t}")


def _closed_form_runs(runs: list, inputs: _Inputs, max_iter: int,
                      stop_tol: float | None) -> list[tuple[RegisterState, Trajectory]]:
    """The standard iterate's runs, each a (pipeline, row of ``inputs``) over
    one shared engine, read in closed form a chunk at a time: a chunk's
    stacked (k, 2^m, r+1) states hold at most :data:`_BATCH_ELEMENTS` entries
    (one input at the least).  Each final state is on [V_nz, y_null], its
    y_null a (N, 1) row of one view of the batch's null columns."""
    engine = runs[0][0].engine
    size = max(1, _BATCH_ELEMENTS // (2**engine.m * inputs.coords.shape[1]))
    y_null = inputs.y_null[:, :, None]
    out = []
    for start in range(0, len(runs), size):
        pipes, rows = zip(*runs[start:start + size])
        finals, trajs = _rotate(pipes, inputs.coords[list(rows)], max_iter, stop_tol)
        out += [(RegisterState(final, engine.m, (engine.nonzero_basis, y_null[row])),
                 traj) for row, final, traj in zip(rows, finals, trajs)]
    return out


def _step(pipe: _Pipeline, inputs: _Inputs, row: int, max_iter: int,
          stop_tol: float | None) -> tuple[RegisterState, Trajectory]:
    """The amplification run of row ``row`` of the projected inputs with
    every iterate stepped on coordinates [V_nz, y_null, e_null]."""
    engine = pipe.engine
    coords, W, columns = engine.span(inputs.ys[row], inputs.coords[row], inputs.y_null[row])
    a = pipe.initial_table * coords
    target_conj = np.append(_fidelity_targets(inputs.coords[row:row + 1])[0], 0.0)  # e_null: 0
    rows = []  # per iterate: success, qubit 0's P0, marked, fidelity

    def record(mat: np.ndarray):
        pd = phase_distribution(mat)
        _check_norm(pd.sum(), len(rows))
        rows.append([*(pd @ engine.observables), _norm_sq(engine.f2 @ mat),
                     _norm_sq(mat @ target_conj)])

    mat = a
    record(mat)
    stopped_at = None
    for t in range(1, max_iter + 1):
        mat = pipe.iterate(mat, a, W)
        record(mat)
        if stop_tol is not None and abs(rows[-1][1] - 0.5) <= stop_tol:
            stopped_at = t
            break
    return (RegisterState(mat, engine.m, columns),
            _trajectory(pipe.cfg, np.array(rows), stopped_at))


_ROW_BLOCK = 64  # closed-form rows evaluated per step of the stop rule
_TINY = np.finfo(float).tiny
_BATCH_ELEMENTS = 2**13  # coordinate entries per (k, 2^m, r+1) stack read in closed form
ROTATION_TOL = 1e-10  # largest distance of one simulated iterate from the closed form
_FIRST_AND_LAST = np.array([[True], [False]])  # rows of the iterates read back: 1 and the last


def _norms_sq(stack: np.ndarray) -> np.ndarray:
    """The squared norm of each complex128 array in a stack."""
    flat = stack.reshape(len(stack), -1).view(np.float64)  # real and imaginary parts
    return np.add.reduce(flat * flat, axis=-1)


def _rotate(pipes: Sequence[_Pipeline], coords: np.ndarray, max_iter: int,
            stop_tol: float | None) -> tuple[np.ndarray, list[Trajectory]]:
    """The standard iterate read in closed form on the plane of u and v, for
    a stack of input coordinates (k, r+1) on [V_nz, y_null], each input run
    under its own pipeline in ``pipes`` (all over one engine); returns the
    stack of final states in those coordinates and one trajectory per input,
    with its pipeline's mode and kappa.  The initial states are stacked here,
    from each input's own pipeline, so that the stack is freed once read.

    With s, c = sin, cos((2t+1) theta), iterate t is (-1)^t (s u + c v), so
    any squared projection |L x|^2 is the quadratic form s^2 |Lu|^2 +
    c^2 |Lv|^2 + 2 s c Re<Lu, Lv>; the coefficient columns below hold it for
    the four columns of a row: the success probability and qubit 0's P0
    (both read per phase row), the marked projection (s^2) and the fidelity.
    The marked part P_f2 a = f2 (x) w, w = f2^dag a, is rank one: per phase
    row |u|^2 = |f2|^2 and <u, v> = f2 <w, v> / sin, and <Lu, Lv> = 0 for
    the fidelity, which acts on the system register only.  u and v are kept
    unnormalized and scaled where read, and the simulated iterate's buffer
    becomes its distance from the closed form, so that few state-sized
    arrays are alive at once.  Every input's numbers come from its own rows
    of each stack, whatever else the batch holds, and each check is one
    array test that names the first failing input.

    Under a stop rule, rows are evaluated a block at a time for the whole
    chunk until every input has stopped, and each trajectory is cut at its
    own stop.  A degenerate plane (theta = 0 or pi/2) leaves the missing
    direction zero and the trajectory constant.
    """
    engine, k = pipes[0].engine, len(coords)
    M = engine.f2.size
    A = np.array([pipe.initial_table[:, :-1] for pipe in pipes])  # no e_null
    A *= coords[:, None, :]
    targets_conj = _fidelity_targets(coords)
    # runtime invariant: one simulated iterate per input, checked below; the
    # standard iterate reads no phase gate, so one pipeline's serves the stack
    Q1 = pipes[0].iterate(A, A, None)
    w = engine.f2 @ A
    u = engine.f2[:, None] * w[:, None]  # P_f2 a = f2 (x) w, normalized below
    v = A - u  # (1 - P_f2) a, normalized below
    del A  # few state-sized arrays are alive at once
    sin_sq, cos_sq = _norms_sq(w), _norms_sq(v)
    v_real = v.view(np.float64)
    v_rows = np.einsum("kmj,kmj->km", v_real, v_real)  # |v|^2 per phase row
    # <w| and <target| on v, per phase row, as matrix-vector products
    w_v = (v @ w.conj()[:, :, None])[..., 0]
    target_v = (v @ targets_conj[:, :, None])[..., 0]
    _check_norm(sin_sq + cos_sq, 0)  # |a|^2 = |P_f2 a|^2 + |(1 - P_f2) a|^2, as |f2| = 1
    sin0, cos0 = np.sqrt(sin_sq), np.sqrt(cos_sq)
    theta = np.arctan2(sin0, cos0)
    # a zero part stays zero; a part below _TINY has theta 0 or pi/2 and no weight
    s, c = np.maximum(sin0, _TINY), np.maximum(cos0, _TINY)
    fu = np.add.reduce(w * targets_conj, axis=-1)  # <target|P_f2 a>, the same in every marked row
    read = (np.concatenate([v_rows, w_v.real * (2.0 * engine.f2)], axis=-1).reshape(k, 2, M)
            @ engine.observables) / c[:, None, None]
    forms = np.zeros((k, 3, 4))  # columns: success, qubit 0's P0, marked, fidelity
    np.multiply(engine.marked_observables, (sin0 > 0.0)[:, None], out=forms[:, 0, :2])
    np.divide(read[:, 0], c[:, None], out=forms[:, 1, :2])
    np.divide(read[:, 1], s[:, None], out=forms[:, 2, :2])
    forms[:, 0, 2] = 1.0
    np.divide((fu.real ** 2 + fu.imag ** 2) / s, s, out=forms[:, 0, 3])
    np.divide(_norms_sq(target_v) / c, c, out=forms[:, 1, 3])
    del v_rows, w_v, target_v, read
    stops = np.full(k, max_iter + 1)  # each input's stopping iterate, or beyond
    blocks = []  # the rows of every input, a block at a time
    size = max_iter + 1 if stop_tol is None else _ROW_BLOCK  # no stop rule: one block
    for start in range(0, max_iter + 1, size):
        t = np.arange(start, min(start + size, max_iter + 1))
        blocks.append(_rows(t, theta, forms))
        if stop_tol is not None:
            hits = np.abs(blocks[-1][:, :, 1] - 0.5) <= stop_tol
            hits[:, 0] &= start > 0  # iterate 0 never stops
            first = np.where(hits.any(axis=1), t[hits.argmax(axis=1)], max_iter + 1)
            stops = np.minimum(stops, first)
            if np.all(stops <= max_iter):
                break
    rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    # iterate 1 (the check) and the last one (the final state) of each input:
    # (-1)^t (s u + c v), with u and v the parts above over sin and cos
    _check_norm(_norms_sq(Q1), 1)
    t = np.where(_FIRST_AND_LAST, 1, np.minimum(stops, max_iter))  # (2, k)
    angle = (2 * t + 1) * theta
    sign = np.where(t % 2, -1.0, 1.0)  # (-1)^t
    along_u = (sign * np.sin(angle) / s)[..., None, None]
    along_v = (sign * np.cos(angle) / c)[..., None, None]
    u, v = u.view(np.float64), v.view(np.float64)
    drift = Q1.view(np.float64)  # the simulated iterate 1 less the closed form's, in its place
    del Q1
    drift -= along_u[0] * u
    drift -= along_v[0] * v
    residuals = np.maximum.reduce(np.abs(drift.view(complex)), axis=(1, 2))
    del drift
    ok = residuals <= ROTATION_TOL
    if np.count_nonzero(ok) < k:
        raise ValueError(f"iterate leaves the two-plane rotation by {residuals[np.argmin(ok)]:.3g} "
                         "at iteration 1")
    trajs = []
    for pipe, run_rows, last, stop, th, residual in zip(
            pipes, rows, t[1].tolist(), stops.tolist(), theta.tolist(), residuals.tolist()):
        t_star = round(math.pi / (4.0 * th) - 0.5) if th > 0.0 else 0
        trajs.append(_trajectory(pipe.cfg, run_rows[:last + 1],
                                 stop if stop <= max_iter else None, theta=th,
                                 optimal_iterations=t_star, rotation_residual=residual))
    u *= along_u[1]  # the last iterate, the final state, in u's place
    u += along_v[1] * v
    return u.view(complex), trajs


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


def _trajectory(cfg: PeaConfig, rows: np.ndarray, stopped_at: int | None,
                **rotation) -> Trajectory:
    """A Trajectory of a run under ``cfg`` from per-iterate rows of the
    success probability, qubit 0's P0, the marked projection and the
    fidelity."""
    return Trajectory(
        iterations=np.arange(rows.shape[0]),
        success_prob=rows[:, 0],
        marked_prob=rows[:, 2],
        fidelity=rows[:, 3],
        qubit0_p0=rows[:, 1],
        stopped_at=stopped_at,
        mode=cfg.mode,
        kappa=cfg.kappa,
        **rotation,
    )
