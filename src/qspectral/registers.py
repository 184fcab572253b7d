"""Two-register statevector container.

States live on (phase ⊗ system) qubit registers; the phase register is the
most significant block, so flat index = p * 2**n + s.  Qubit indices count
from the most significant qubit: qubit 0 is the top phase qubit, qubits
m..m+n-1 belong to the system register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10


def phase_distribution(mat: np.ndarray) -> np.ndarray:
    """Probability of each phase-register basis state of a (2^m, 2^n) array,
    or of each array in a stack of them."""
    return (np.abs(mat) ** 2).sum(axis=-1)


def system_distribution(mat: np.ndarray) -> np.ndarray:
    """Probability of each system-register basis state of a (2^m, 2^n) array."""
    return np.sum(np.abs(mat) ** 2, axis=0)


def _may_change(a) -> bool:
    """Whether the data of ``a`` can still be written through ``a`` or an array
    it views; only a read-only array over read-only arrays cannot."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return True
        a = a.base
    return a is not None


@dataclass(frozen=True)
class RegisterState:
    """A unit statevector on the two registers.  The amplitudes are read-only:
    an array that can still change is copied, a read-only one is kept as is."""

    amplitudes: np.ndarray
    m: int  # phase qubits
    n: int  # system qubits

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError(f"invalid register sizes m={self.m}, n={self.n}")
        if amps.size != 2 ** (self.m + self.n):
            raise ValueError(f"expected {2 ** (self.m + self.n)} amplitudes, got {amps.size}")
        norm = np.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm:.12g} is not 1")
        if _may_change(amps):
            amps = amps.copy()
            amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def as_matrix(self) -> np.ndarray:
        """(2**m, 2**n) view: rows are phase-register basis states."""
        return self.amplitudes.reshape(2**self.m, 2**self.n)

    def phase_distribution(self) -> np.ndarray:
        """Probability of each phase-register basis state."""
        return phase_distribution(self.as_matrix())
