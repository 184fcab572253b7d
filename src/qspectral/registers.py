"""Two-register statevector container.

States live on (phase ⊗ system) qubit registers; the phase register is the
most significant block, so flat index = p * 2**n + s.  Qubit indices count
from the most significant qubit: qubit 0 is the top phase qubit, qubits
m..m+n-1 belong to the system register.  A state is held as coefficients S
on orthonormal system-register columns B, never as the full register array
unless its amplitudes are read.  This module alone lays a state out on the
2^n system rows: B may have fewer rows N, and rows N to 2^n - 1 of the
register are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    (2^m, 2^n) register array is S B^T, with B's N <= 2^n rows as the first
    system rows and zeros below them.

    ``columns`` holds B as at least one block, each a (N, k) array or a
    (N,) column of one shared row count N, kept by reference; pass
    ``(np.eye(2**n),)`` to give the amplitudes themselves.  S is copied and
    read-only.  Every observable here reads S; the amplitudes are built, and
    the rows past N filled with zeros, on their first read.
    """

    coefficients: np.ndarray
    m: int  # phase qubits
    n: int  # system qubits
    columns: tuple

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError(f"invalid register sizes m={self.m}, n={self.n}")
        blocks = tuple([c if c.ndim == 2 else c[:, None] for c in map(np.asarray, self.columns)])
        if not blocks:
            raise ValueError("columns must hold at least one block")
        rows = blocks[0].shape[0]
        if rows > 2**self.n or any([b.shape[0] != rows for b in blocks]):
            raise ValueError(f"columns must have {2**self.n} rows or fewer, as many in each block")
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
