import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qspectral import encoding, numerics, qpea
from qspectral.datasets import random_psd_matrix, random_range_input
from qspectral.errors import PhaseResolutionError
from dense_reference import controlled_power_apply, full_state, null_space_vectors


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.conj().T) / 2


class TestGramMatrix:
    def test_single_unit_row(self):
        H = encoding.gram_matrix(np.array([[1.0, 0.0]]))
        assert np.array_equal(H, np.diag([1.0, 0.0]))
        assert np.linalg.matrix_rank(H) == 1

    def test_centered_constant_dataset(self):
        X = np.ones((5, 3))
        assert np.allclose(encoding.points_gram(X, centered=True), 0.0)

    def test_random_psd(self):
        rng = np.random.default_rng(2)
        H = encoding.gram_matrix(rng.normal(size=(10, 4)))
        w = np.linalg.eigvalsh(H)
        assert w[0] >= -1e-10

    def test_points_gram_orientation(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        G = encoding.points_gram(X)
        assert G.shape == (6, 6)
        assert np.allclose(G, X @ X.T)


class TestHouseholderDecompose:
    def test_single_row(self):
        hs = encoding.householder_decompose(np.array([[1.0, 0.0]]))
        assert len(hs) == 1
        assert hs.coefficients[0] == pytest.approx(1.0)
        assert np.allclose(numerics.proj_reflection(hs.reflectors[0]), np.diag([-1.0, 1.0]))
        assert np.allclose(hs.reconstruct(), np.diag([1.0, 0.0]))

    def test_identity_rows(self):
        hs = encoding.householder_decompose(np.eye(3))
        assert np.allclose(hs.reconstruct(), np.eye(3))

    def test_random_roundtrip(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 4))
        hs = encoding.householder_decompose(X)
        assert np.max(np.abs(hs.reconstruct() - encoding.gram_matrix(X))) <= 1e-10

    def test_zero_rows_dropped_with_warning(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        with pytest.warns(UserWarning, match="zero rows"):
            hs = encoding.householder_decompose(X)
        assert len(hs) == 2
        assert np.allclose(hs.reconstruct(), encoding.gram_matrix(X))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all rows are zero"):
            encoding.householder_decompose(np.zeros((3, 2)))

    def test_unit_rows_give_unit_coefficients(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        hs = encoding.householder_decompose(X)
        assert np.max(np.abs(hs.coefficients - 1.0)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 32), cols=st.integers(1, 16))
    def test_roundtrip_random_sizes(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, cols))
        hs = encoding.householder_decompose(X)
        assert np.max(np.abs(hs.reconstruct() - encoding.gram_matrix(X))) <= 1e-10
        for j in range(min(len(hs), 3)):
            R = numerics.proj_reflection(hs.reflectors[j])
            assert numerics.is_unitary(R, 1e-10)


class TestLinearize:
    """The linearized backend: k = 10 ||H||_1, and phase -atan(lambda/k)/2pi,
    the phase of the unitarized eigenvalue 1 - i lambda/k."""

    @staticmethod
    def linearized(H):
        return encoding.make_evolution(H, m=4, backend="linearized")

    def test_diagonal_example(self):
        evo = self.linearized(np.diag([2.0, 0.0]))
        assert evo.scale == pytest.approx(20.0)
        # I - iH/k has eigenvalues 1 - 0.1i and 1; U carries their phases
        z = np.exp(2j * np.pi * evo.eigenphases)
        assert sorted(np.round(z, 12).tolist(), key=lambda z: z.imag) == [
            pytest.approx((1.0 - 0.1j) / abs(1.0 - 0.1j)),
            pytest.approx(1.0 + 0.0j),
        ]

    def test_normalized_eigenvalue_phase(self):
        evo = self.linearized(np.diag([2.0, 0.0]))
        phase = 2.0 * np.pi * evo.eigenphases[np.argmax(evo.eigenvalues)]
        assert phase == pytest.approx(np.angle((1.0 - 0.1j) / abs(1.0 - 0.1j)))
        assert phase == pytest.approx(-math.atan(0.1))
        assert phase == pytest.approx(-0.0996687, abs=1e-7)
        assert abs(phase - (-0.1)) <= 3.4e-4

    def test_scale_invariance(self):
        H = random_hermitian(6, 9)
        evo1, evo2 = self.linearized(H), self.linearized(0.5 * H)
        assert evo2.scale == pytest.approx(0.5 * evo1.scale)
        assert np.max(np.abs(evo1.eigenphases - evo2.eigenphases)) <= 1e-12
        assert np.max(np.abs(evo1.unitary - evo2.unitary)) <= 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="k = 0"):
            self.linearized(np.zeros((3, 3)))

    def test_time_rejected(self):
        # the linearized phases do not depend on t, so a given t would be ignored
        with pytest.raises(ValueError, match="t=0.5 .*linearized backend"):
            encoding.make_evolution(np.diag([2.0, 0.0]), m=4, backend="linearized", t=0.5)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16))
    def test_eigenvalue_ratio_bounded(self, seed, dim):
        H = random_hermitian(dim, seed)
        k = self.linearized(H).scale
        assert np.max(np.abs(np.linalg.eigvalsh(H))) / k <= 0.1 + 1e-12


class TestMakeEvolution:
    def test_explicit_time_diagonal(self):
        lam = 2.0
        H = np.diag([0.0, lam / 2.0])
        # place the nonzero eigenvalue at phase exactly 1/4
        evo = encoding.make_evolution(H, m=2, t=0.5 / lam)
        assert np.allclose(sorted(evo.eigenphases), [0.0, 0.25])
        # PEA at m=2 reads binary 01
        cfg = qpea.PeaConfig(m=2, mode="qft")
        state = qpea.phase_estimation(cfg, evo, np.array([0.0, 1.0]))
        assert state.phase_distribution()[1] == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix_identity(self):
        evo = encoding.make_evolution(np.zeros((4, 4)), m=3)
        assert np.allclose(evo.unitary, np.eye(4))

    def test_zero_eigenvector_phase_pinned_both_backends(self):
        H = random_psd_matrix(8, 3, seed=11)
        for backend in ("exact_exponential", "linearized"):
            evo = encoding.make_evolution(H, m=4, backend=backend)
            zero_idx = np.abs(evo.eigenvalues) <= evo.zero_tol
            assert np.all(evo.eigenphases[zero_idx] == 0.0)
            # vectors off the nonzero eigenspace are fixed points of U
            Z = null_space_vectors(evo, np.random.default_rng(11), 5)
            assert np.max(np.abs(evo.unitary @ Z - Z)) <= 1e-10

    def test_unitary_and_commutes_with_h(self):
        H = random_psd_matrix(16, 6, seed=0)
        evo = encoding.make_evolution(H, m=6)
        U = evo.unitary
        assert np.max(np.abs(U.conj().T @ U - np.eye(16))) <= 1e-10
        assert np.max(np.abs(U @ H - H @ U)) <= 1e-8

    @pytest.mark.parametrize("backend", ["exact_exponential", "linearized"])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_eigenvectors_keep_input_arithmetic(self, backend, cplx):
        H = random_psd_matrix(8, 3, seed=12)
        if cplx:  # same spectrum in a complex eigenbasis
            rng = np.random.default_rng(12)
            Q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
            H = Q @ H @ Q.conj().T
        evo = encoding.make_evolution(H, m=5, backend=backend)
        assert evo.nonzero_basis.dtype == (np.complex128 if cplx else np.float64)
        assert evo.eigenvalues.dtype == evo.eigenphases.dtype == np.float64

    def test_unitary_built_only_when_read(self):
        H = random_psd_matrix(16, 6, seed=13)
        evo = encoding.make_evolution(H, m=6)
        # the operator stores no unitary: every array it holds is real for a real H
        assert "unitary" not in {f.name for f in dataclasses.fields(evo)}
        assert isinstance(encoding.EvolutionOperator.unitary, property)
        held = [v for v in vars(evo).values() if isinstance(v, np.ndarray)]
        assert held and all(v.dtype == np.float64 for v in held)
        expected = sum(np.exp(2j * np.pi * phi) * np.outer(v, v.conj())
                       for phi, v in zip(evo.eigenphases, numerics.hermitian_eig(H)[1].T))
        assert np.max(np.abs(evo.unitary - expected)) <= 1e-12
        assert evo.dim == 16

    def test_nonzero_basis_is_shared_and_read_only(self):
        # selected once: the engine reads the same array, which no reader can change
        H = random_psd_matrix(16, 6, seed=14)
        evo = encoding.make_evolution(H, m=6)
        V = evo.nonzero_basis
        assert qpea._engine(evo, 6).nonzero_basis is V
        assert not V.flags.writeable
        assert np.array_equal(V, numerics.hermitian_eig(H)[1][:, evo.nonzero_mask()])
        with pytest.raises(ValueError, match="read-only"):
            V[0, 0] = 1.0

    def test_no_held_array_is_n_by_n(self):
        # after a run, neither the operator nor its engine holds an N x N array
        H = random_psd_matrix(64, 3, seed=15)
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        qpea.amplify(cfg, evo, random_range_input(H, seed=15), max_iter=3)
        held = [v for obj in (evo, *evo.engines.values()) for v in vars(obj).values()
                if isinstance(v, np.ndarray)]
        assert evo.engines and held
        assert max(v.size for v in held) < 64 * 64

    def test_large_operator_retains_its_nonzero_basis_only(self):
        # N = 2048, r = 8: the full eigenbasis would be 32 MiB, the (N, r)
        # basis is 128 KiB; the operator, its engine and one run keep under 1 MiB
        N, r, m = 2048, 8, 4
        rng = np.random.default_rng(16)
        Q, _ = np.linalg.qr(rng.normal(size=(N, r)))
        H = (Q * rng.uniform(0.3, 1.0, size=r)) @ Q.T
        H = (H + H.T) / 2
        z = rng.normal(size=N)
        inside = Q @ (Q.T @ z)
        y = 0.6 * inside / np.linalg.norm(inside) + 0.8 * (z - inside) / np.linalg.norm(z - inside)
        cfg = qpea.PeaConfig(m=m, kappa=1.0, mode="biased", standard_grover=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evo = encoding.make_evolution(H, m=m)
            qpea.amplify(cfg, evo, y, max_iter=5, stop_tol=None)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert evo.nonzero_basis.shape == (N, r) and evo.engines
        assert retained < 2**20

    def test_low_rank_operator_makes_no_full_eigh(self, monkeypatch):
        # N = 512, rank 128: the spectrum comes from the factor route, whose one
        # eigh is of the pivoted-Cholesky factor's 128 x 128 Gram
        H = random_psd_matrix(512, 128, seed=17)
        shapes = []
        eigh = np.linalg.eigh

        def counting(A, *args, **kwargs):
            shapes.append(np.shape(A))
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        evo = encoding.make_evolution(H, m=8)
        monkeypatch.undo()
        assert shapes == [(128, 128)]
        assert evo.nonzero_basis.shape == (512, 128)
        assert np.count_nonzero(evo.eigenvalues) == 128  # the null ones are exact zeros
        w = np.linalg.eigvalsh(H)
        assert np.max(np.abs(evo.eigenvalues - w)) <= 1e-12 * w[-1]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 16), rank_frac=st.floats(0.0, 1.0), cplx=st.booleans(),
           backend=st.sampled_from(["exact_exponential", "linearized"]),
           seed=st.integers(0, 2**32 - 1))
    def test_unitary_matches_full_eigenbasis_reference(self, n, rank_frac, cplx, backend, seed):
        # U from the (N, r) basis equals V diag(exp(2 pi i phi)) V^dag over a
        # full eigenbasis of the test's own, and is the identity off span(V_nz)
        rank = round(rank_frac * n)
        assume(rank > 0 or backend == "exact_exponential")  # k = 0 cannot be linearized
        rng = np.random.default_rng(seed)
        gauss = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if cplx else 0.0)
        Q, _ = np.linalg.qr(gauss)
        lam = np.zeros(n)
        lam[:rank] = rng.uniform(0.3, 1.0, size=rank)
        H = (Q * lam) @ Q.conj().T
        H = (H + H.conj().T) / 2
        evo = encoding.make_evolution(H, m=5, backend=backend)
        assert evo.nonzero_basis.shape == (n, rank)
        w, V = np.linalg.eigh(H)
        nz = np.abs(w) > evo.zero_tol
        if backend == "exact_exponential":
            phases = np.where(nz, evo.time * w, 0.0)
        else:
            phases = np.where(nz, -np.arctan(w / evo.scale) / (2.0 * np.pi), 0.0)
        reference = (V * np.exp(2j * np.pi * phases)) @ V.conj().T
        assert np.max(np.abs(evo.unitary - reference)) <= 1e-12
        Z = null_space_vectors(evo, rng, 3)
        assert np.max(np.abs(evo.unitary @ Z - Z)) <= 1e-12

    def test_auto_time_respects_resolution_floor(self):
        H = random_psd_matrix(16, 6, seed=1)
        m = 6
        evo = encoding.make_evolution(H, m=m)
        nz = evo.nonzero_mask()
        assert np.min(evo.eigenphases[nz]) >= 2.0 / 2**m - 1e-12
        assert np.max(evo.eigenphases) <= 1.0 - 2.0 / 2**m + 1e-12

    def test_resolution_error_names_eigenvalue(self):
        H = np.diag([0.0, 1e-4, 1.0, 1.0])
        with pytest.raises(PhaseResolutionError, match="0.0001"):
            encoding.make_evolution(H, m=4)

    def test_negative_spectrum_rejected_for_auto_time(self):
        H = np.diag([-1.0, 1.0])
        with pytest.raises(PhaseResolutionError, match="PSD"):
            encoding.make_evolution(H, m=3)

    def test_explicit_time_window_enforced(self):
        H = np.diag([0.0, 1.0])
        with pytest.raises(PhaseResolutionError, match="outside"):
            encoding.make_evolution(H, m=3, t=1.5)

    def test_linearized_phase_error_bound(self):
        for seed in range(10):
            H = random_hermitian(8, seed)
            evo = encoding.make_evolution(H, m=4, backend="linearized")
            k = evo.scale
            nz = evo.nonzero_mask()
            expected = -evo.eigenvalues[nz] / (2.0 * np.pi * k)
            err = np.max(np.abs(evo.eigenphases[nz] - expected))
            assert err <= 5.4e-5
            assert np.max(np.abs(evo.eigenvalues)) / k <= 0.1 + 1e-12


class TestControlledPower:
    def test_control_zero_unchanged(self):
        H = np.diag([0.0, 0.5])
        evo = encoding.make_evolution(H, m=2, t=0.5)
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        state = full_state(amps, 2, 1)  # phase |00>, system |0>
        out = controlled_power_apply(evo, 0, state, control_qubit=0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_identity_evolution_unchanged(self):
        evo = encoding.make_evolution(np.zeros((2, 2)), m=1)
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0  # control |1>, system |0>
        state = full_state(amps, 1, 1)
        out = controlled_power_apply(evo, 3, state, control_qubit=0)
        assert np.allclose(out.amplitudes, amps)

    def test_phase_squared(self):
        # U = diag(1, i): eigenphase 0.25 on |1>; U^2 applies phase i^2 = -1
        H = np.diag([0.0, 1.0])
        evo = encoding.make_evolution(H, m=2, t=0.25)
        amps = np.zeros(8, dtype=complex)
        amps[2 * 2 + 1] = 1.0  # phase |10> (qubit 0 set), system |1>
        state = full_state(amps, 2, 1)
        out = controlled_power_apply(evo, 1, state, control_qubit=0)
        assert out.amplitudes[2 * 2 + 1] == pytest.approx(-1.0)

    def test_norm_preserved(self):
        H = random_psd_matrix(8, 4, seed=3)
        evo = encoding.make_evolution(H, m=3)
        rng = np.random.default_rng(4)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        amps /= np.linalg.norm(amps)
        state = full_state(amps, 3, 3)
        out = controlled_power_apply(evo, 2, state, control_qubit=1)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


class TestGateCount:
    def test_dense_bound(self):
        assert encoding.gate_count_estimate(10, 16, 6) == 10240

    def test_simple_unitaries(self):
        assert encoding.gate_count_estimate(10, 16, 6, simple_unitaries=True) == 2560

    def test_m_zero(self):
        assert encoding.gate_count_estimate(7, 8, 0) == 56

    def test_grid(self):
        for m in (0, 2, 5):
            for L in (1, 3, 9):
                for N in (2, 16, 64):
                    assert encoding.gate_count_estimate(L, N, m) == (2**m) * L * N
                    assert encoding.gate_count_estimate(L, N, m, simple_unitaries=True) == (
                        2**m
                    ) * L * int(np.ceil(np.log2(N)))
