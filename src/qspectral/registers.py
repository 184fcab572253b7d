"""Two-register statevector container and its system-register read.

States live on (phase ⊗ system) qubit registers; the phase register is the
most significant block, so flat index = p * 2**n + s.  Qubit indices count
from the most significant qubit: qubit 0 is the top phase qubit, qubits
m..m+n-1 belong to the system register.  A state is held as coefficients S
on orthonormal system-register columns B, never as the full register array
unless its amplitudes are read.  This module alone knows the register
layout: B has N rows, the system register n = ceil(log2 N) qubits, and rows
N to 2^n - 1 of the register are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

NORM_TOL = 1e-10


def phase_distribution(mat: np.ndarray) -> np.ndarray:
    """Probability of each phase-register basis state of a (2^m, 2^n) array,
    or of each array in a stack of them."""
    return (np.abs(mat) ** 2).sum(axis=-1)


@dataclass(frozen=True)
class RegisterState:
    """A unit statevector on the two registers, held as a coefficient array S
    of shape (2^m, R) on R orthonormal system-register columns B, so that the
    (2^m, 2^n) register array is S B^T, with B's N rows as the first system
    rows and zeros below them; n = ceil(log2 N) is derived from B.

    ``columns`` holds B as at least one block, each a (N, k) array or a
    (N,) column of one shared row count N, kept by reference; pass
    ``(np.eye(2**n),)`` to give the amplitudes themselves.  S is copied and
    read-only.  Every observable here reads S; the amplitudes are built, and
    the rows past N filled with zeros, on their first read.
    """

    coefficients: np.ndarray
    m: int  # phase qubits
    columns: tuple
    n: int = field(init=False)  # system qubits, ceil(log2 N)

    def __post_init__(self):
        blocks = tuple([c if c.ndim == 2 else c[:, None] for c in map(np.asarray, self.columns)])
        if not blocks:
            raise ValueError("columns must hold at least one block")
        rows = blocks[0].shape[0]
        if any([b.shape[0] != rows for b in blocks]):
            raise ValueError("columns must have as many rows in each block")
        width = sum([b.shape[1] for b in blocks])
        S = np.array(self.coefficients, dtype=complex)
        if S.size != 2**self.m * width:
            raise ValueError(f"expected {2**self.m * width} coefficients, got {S.size}")
        S = S.reshape(2**self.m, width)
        norm = math.sqrt(np.vdot(S, S).real)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm:.12g} is not 1")
        S.flags.writeable = False
        object.__setattr__(self, "coefficients", S)
        object.__setattr__(self, "columns", blocks)
        object.__setattr__(self, "n", (rows - 1).bit_length())

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The flat amplitudes S B^T, built on the first read; the system rows
        past B's are zero."""
        amps = np.zeros((2**self.m, 2**self.n), dtype=complex)
        amps[:, :len(self.columns[0])] = self.coefficients @ np.concatenate(self.columns, axis=1).T
        amps.flags.writeable = False
        return amps.reshape(-1)

    def phase_distribution(self) -> np.ndarray:
        """Probability of each phase-register basis state, |S_p|^2 per row
        since B is orthonormal."""
        return phase_distribution(self.coefficients)


def system_similarities(states: Sequence[RegisterState], ys) -> np.ndarray:
    """<y| rho |y> of each state with its candidate y, a row of ``ys``, for
    the state's reduced system density matrix rho: the probability of reading
    |0> on the system register after the reflection that maps y to |0>, with
    the phase register traced out.  It is |S conj(B^dag y)|^2 on the state's
    coefficients S and columns B, so no register array is built.

    A candidate has N entries, or 2^n entries that are zero past row N, and
    unit norm within 1e-8; any other is refused, naming the first.  The
    states have column blocks of equal shapes, as one ``amplify_many`` call
    returns them.  A first block that is one array for every state (V_nz
    there) is read in one broadcast product, every other block per state;
    each candidate's products are its own, so its value does not depend on
    the rest of the batch.
    """
    rows, n = len(states[0].columns[0]), states[0].n
    Y = np.asarray(ys, dtype=complex)
    if Y.ndim != 2 or Y.shape[0] != len(states) or Y.shape[1] not in (rows, 2**n):
        raise ValueError(f"expected {len(states)} candidates of {rows} or {2**n} entries, "
                         f"got shape {Y.shape}")
    bad = np.flatnonzero(Y[:, rows:].any(axis=1) | ~(abs(np.linalg.norm(Y, axis=1) - 1) <= 1e-8))
    if bad.size:
        raise ValueError(f"candidate {bad[0]} must be a unit vector zero past row {rows}")
    Y = Y[:, :rows].conj()  # (K, N)
    overlaps = []  # conj(B^dag y), block by block, (K, width)
    for index, blocks in enumerate(zip(*[state.columns for state in states])):
        if index == 0 and all([b is blocks[0] for b in blocks]):  # rows as vector-matrix products
            overlaps.append((Y[:, None, :] @ blocks[0])[:, 0])
        else:
            overlaps.append((Y[:, :, None] * np.array(blocks)).sum(axis=1))
    reads = (np.array([state.coefficients for state in states])
             @ np.concatenate(overlaps, axis=1)[:, :, None])  # <y|psi_p> per phase row
    return np.minimum(1.0, (reads.real ** 2 + reads.imag ** 2).sum(axis=(1, 2)))
