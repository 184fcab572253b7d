import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qspectral import classical, encoding, numerics, qpea, readout
from qspectral.datasets import random_psd_matrix, random_range_input
from qspectral.errors import DegenerateTargetError
from qspectral.registers import RegisterState

from dense_reference import (_with_system, bpea_matrix, controlled_power_apply, iteration_matrix,
                             ladder_matrix, marking_reflection, prepare_unitary, zero_reflection)


def involutory_reflection(R, tol=1e-10):
    eye = np.eye(R.shape[0])
    return (
        np.max(np.abs(R.conj().T @ R - eye)) <= tol
        and np.max(np.abs(R - R.conj().T)) <= tol
        and np.max(np.abs(R @ R - eye)) <= tol
    )


class TestBiasVector:
    def test_m1_kappa1(self):
        assert np.allclose(qpea.bias_vector(1, 1.0), np.array([1.0, 1.0]) / np.sqrt(2))

    def test_m6_kappa20_normalization(self):
        f = qpea.bias_vector(6, 20.0)
        mu = 20.0 / f[0].real
        assert mu == pytest.approx(np.sqrt(463.0))
        assert mu == pytest.approx(21.5174, abs=1e-4)
        assert np.linalg.norm(f) == pytest.approx(1.0)

    def test_kappa_zero_equals_marking_vector(self):
        assert np.array_equal(qpea.bias_vector(4, 0.0), qpea.marking_vector(4))

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qpea.bias_vector(3, -1.0)


class TestReflections:
    def test_zero_reflection_flips_zero_state(self):
        R = zero_reflection(2, 1)
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.allclose(R @ e0, -e0)
        other = np.zeros(8)
        other[3] = 1.0
        assert np.allclose(R @ other, other)

    def test_marking_reflection_fixes_zero_phase_block(self):
        R = marking_reflection(2, 1)
        rng = np.random.default_rng(0)
        sys = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = np.zeros(8, dtype=complex)
        vec[:2] = sys  # phase |00> block
        assert np.max(np.abs(R @ vec - vec)) <= 1e-12

    def test_bias_reflection_large_kappa_limit(self):
        R = qpea.bias_reflection(3, 1e9)
        expected = np.diag([-1.0] + [1.0] * 7)
        assert np.max(np.abs(R - expected)) <= 1e-6

    @settings(max_examples=10, deadline=None)
    @given(m=st.integers(1, 5), kappa=st.floats(0.0, 50.0, allow_nan=False))
    def test_all_reflections_involutory(self, m, kappa):
        assert involutory_reflection(qpea.bias_reflection(m, kappa))
        assert involutory_reflection(marking_reflection(m))
        assert involutory_reflection(zero_reflection(m, 1))

    def test_reflections_with_system_factor(self):
        R = _with_system(qpea.bias_reflection(2, 1.5), 2)
        assert R.shape == (16, 16)
        assert involutory_reflection(R)


class TestPrepareUnitary:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), cplx=st.booleans())
    def test_maps_zero_to_target(self, seed, dim, cplx):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=dim) + (1j * rng.normal(size=dim) if cplx else 0.0)
        y = y / np.linalg.norm(y)
        W = prepare_unitary(y)
        assert numerics.is_unitary(W, 1e-10)
        e0 = np.zeros(dim)
        e0[0] = 1.0
        assert np.max(np.abs(W @ e0 - y)) <= 1e-10

    def test_identity_when_target_is_zero_state(self):
        y = np.zeros(4)
        y[0] = 1.0
        assert np.allclose(prepare_unitary(y), np.eye(4))


class TestSuccessProbability:
    def test_zero_phase_register(self):
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1.0  # phase |00>, system |1>
        assert qpea.success_probability(RegisterState(amps, 2, 1)) == 0.0

    def test_marking_vector_phase(self):
        f2 = qpea.marking_vector(2)
        sys = np.array([1.0, 0.0], dtype=complex)
        state = RegisterState(np.kron(f2, sys), 2, 1)
        assert qpea.success_probability(state) == pytest.approx(1.0)

    def test_uniform_phase(self):
        m = 3
        amps = np.kron(np.full(2**m, 1.0 / np.sqrt(2**m)), np.array([1.0, 0.0]))
        state = RegisterState(amps.astype(complex), m, 1)
        assert qpea.success_probability(state) == pytest.approx(1.0 - 1.0 / 2**m)


class TestWalshHadamard:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_hadamard_wall(self, m):
        rng = np.random.default_rng(m)
        mat = rng.normal(size=(2**m, 3)) + 1j * rng.normal(size=(2**m, 3))
        want = qpea.hadamard_wall(m) @ mat
        assert np.max(np.abs(qpea._walsh_hadamard(mat.copy()) - want)) <= 1e-12

    def test_verbatim_qft_iterate_builds_no_dense_wall(self, monkeypatch):
        H = random_psd_matrix(8, 3, seed=48)
        y = random_range_input(H, seed=48, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, mode="qft", standard_grover=False)
        wall = qpea.hadamard_wall(4)

        def refuse(m):
            raise AssertionError("dense Hadamard wall built")

        monkeypatch.setattr(qpea, "hadamard_wall", refuse)
        assert_matches_dense(cfg, evo, H, y)
        monkeypatch.undo()
        assert np.array_equal(wall, qpea.hadamard_wall(4))


class TestRegisterStateOwnership:
    def test_later_writes_to_the_callers_array_do_not_reach_the_state(self):
        amps = np.zeros(8, dtype=complex)
        amps[3] = 1.0
        state = RegisterState(amps, 2, 1)
        amps[3], amps[0] = 0.0, 1.0
        assert (state.amplitudes[3], state.amplitudes[0]) == (1.0, 0.0)
        # a read-only view of a writeable array can still change: copied too
        base = np.zeros(8, dtype=complex)
        base[5] = 1.0
        view = base.view()
        view.flags.writeable = False
        state = RegisterState(view, 2, 1)
        base[5], base[1] = 0.0, 1.0
        assert (state.amplitudes[5], state.amplitudes[1]) == (1.0, 0.0)
        assert not state.amplitudes.flags.writeable

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="is not 1"):
            RegisterState(np.full(8, np.nan, dtype=complex), 2, 1)
        with pytest.raises(ValueError, match="is not 1"):
            RegisterState(np.full((4, 2), np.nan, dtype=complex), 2, 2, (np.eye(4)[:, :2],))
        with pytest.raises(ValueError, match="is not 1 at iteration 0"):
            qpea._check_norm(np.nan, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must have 4 rows"):
            RegisterState(np.eye(4, 2), 2, 2, (np.eye(8)[:, :2],))
        with pytest.raises(ValueError, match="expected 8 coefficients, got 6"):
            RegisterState(np.eye(2, 3), 2, 2, (np.eye(4)[:, :2],))

    @pytest.mark.parametrize("entry", ["phase_estimation", "amplify", "amplify_many",
                                       "amplify_stepped"])
    @pytest.mark.parametrize("standard", [True, False])
    def test_engine_builds_no_register_array_unless_read(self, entry, standard):
        # N = 256, m = 6: one (2^m, N) complex array is 256 KiB.  The run, its
        # phase distribution, success probability and similarities stay under
        # half of that; reading the amplitudes builds the array, S B^T
        H = random_psd_matrix(256, 2, seed=27)
        evo = encoding.make_evolution(H, m=6)
        rng = np.random.default_rng(27)
        z = rng.normal(size=256) + 1j * rng.normal(size=256)
        z /= np.linalg.norm(z)  # a random unit vector, mostly in the null space
        inside = evo.nonzero_basis @ (evo.nonzero_basis.T @ z)
        y = 0.6 * inside / np.linalg.norm(inside) + 0.8 * (z - inside) / np.linalg.norm(z - inside)
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=standard)
        array_bytes = 2**6 * 256 * 16
        tracemalloc.start()
        try:
            if entry == "phase_estimation":
                state = qpea.phase_estimation(cfg, evo, y)
            elif entry == "amplify_many":
                (state, _), (other, _) = qpea.amplify_many(cfg, evo, [y, z], max_iter=6,
                                                           stop_tol=None)
                assert state.columns[0] is other.columns[0]  # one V_nz, held by reference
            else:
                state, _ = getattr(qpea, entry)(cfg, evo, y, max_iter=6, stop_tol=None)
            dist = state.phase_distribution()
            success = qpea.success_probability(state)
            sims = [readout.register_similarity(state, v) for v in (y, z)]
            peak = tracemalloc.get_traced_memory()[1]
            assert "amplitudes" not in vars(state)
            mat = state.as_matrix()
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < array_bytes // 2
        assert built >= array_bytes  # the measurement sees the array once it is built
        assert mat.shape == (2**6, 256) and not mat.flags.writeable
        B = np.concatenate(state.columns, axis=1)
        assert np.max(np.abs(mat - state.coefficients @ B.T)) <= 1e-15
        assert np.max(np.abs(dist - qpea.phase_distribution(mat))) <= 1e-12
        assert abs(success - (1.0 - dist[0])) <= 1e-15
        for v, sim in zip((y, z), sims):
            assert abs(sim - np.sum(np.abs(mat @ v.conj()) ** 2)) <= 1e-12


class TestPhaseEstimation:
    def test_exact_phase_deterministic_readout(self):
        m = 4
        for target_bin in (1, 5, 11):
            H = np.diag([0.0, 1.0])
            evo = encoding.make_evolution(H, m=m, t=target_bin / 2**m)
            cfg = qpea.PeaConfig(m=m, mode="qft")
            state = qpea.phase_estimation(cfg, evo, np.array([0.0, 1.0]))
            dist = state.phase_distribution()
            assert dist[target_bin] >= 1.0 - 1e-10

    def test_inexact_phase_modal_outcome_nearest(self):
        m = 4
        phi = (6 + 0.3) / 2**m  # nearest bin is 6
        H = np.diag([0.0, 1.0])
        evo = encoding.make_evolution(H, m=m, t=phi)
        cfg = qpea.PeaConfig(m=m, mode="qft")
        state = qpea.phase_estimation(cfg, evo, np.array([0.0, 1.0]))
        assert int(np.argmax(state.phase_distribution())) == 6

    def test_identity_evolution_biased_roundtrip(self):
        evo = encoding.make_evolution(np.zeros((4, 4)), m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased")
        rng = np.random.default_rng(1)
        y = rng.normal(size=4)
        y /= np.linalg.norm(y)
        state = qpea.phase_estimation(cfg, evo, y)
        expected = np.zeros(32, dtype=complex)
        expected[:4] = y
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-10

    def test_success_matches_projection_for_exact_phases(self):
        # diagonal H with exactly representable phases: success probability
        # equals the squared projection onto the nonzero eigenspace
        m = 4
        H = np.diag([0.0, 0.0, 2.0, 4.0])
        evo = encoding.make_evolution(H, m=m, t=2.0 / 2**m / 2.0)  # phases 0.125, 0.25
        rng = np.random.default_rng(3)
        y = rng.normal(size=4)
        y /= np.linalg.norm(y)
        cfg = qpea.PeaConfig(m=m, mode="qft")
        state = qpea.phase_estimation(cfg, evo, y)
        assert qpea.success_probability(state) == pytest.approx(
            y[2] ** 2 + y[3] ** 2, abs=1e-10
        )

    def test_rank_deficient_marks_something(self):
        H = random_psd_matrix(8, 3, seed=5)
        y = random_range_input(H, seed=5, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=5)
        for mode, kappa in (("qft", 0.0), ("biased", 1.0)):
            cfg = qpea.PeaConfig(m=5, kappa=kappa, mode=mode)
            state = qpea.phase_estimation(cfg, evo, y)
            assert qpea.success_probability(state) > 0.0

    def test_dimension_mismatch_rejected(self):
        evo = encoding.make_evolution(np.zeros((4, 4)), m=3)
        cfg = qpea.PeaConfig(m=3, mode="qft")
        with pytest.raises(ValueError, match="does not match"):
            qpea.phase_estimation(cfg, evo, np.array([1.0, 0.0]))


class TestDenseBuilders:
    def test_applier_matches_dense_matrix(self):
        H = random_psd_matrix(4, 2, seed=7)
        y = random_range_input(H, seed=7, overlap_sq=(0.2, 0.95))
        for mode, kappa in (("qft", 0.0), ("biased", 1.5)):
            cfg = qpea.PeaConfig(m=3, kappa=kappa, mode=mode)
            evo = encoding.make_evolution(H, m=3)
            A = bpea_matrix(cfg, evo, y)
            state = qpea.phase_estimation(cfg, evo, y)
            e0 = np.zeros(32, dtype=complex)
            e0[0] = 1.0
            assert np.max(np.abs(A @ e0 - state.amplitudes)) <= 1e-12

    def test_iterate_unitary(self):
        H = random_psd_matrix(4, 2, seed=8)
        y = random_range_input(H, seed=8, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=3)
        for standard in (False, True):
            cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=standard)
            Q = iteration_matrix(cfg, evo, y)
            assert np.max(np.abs(Q.conj().T @ Q - np.eye(32))) <= 1e-9

    def test_full_size_iterate_unitary(self):
        H = random_psd_matrix(16, 6, seed=9)
        y = random_range_input(H, seed=9, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=6)
        cfg = qpea.PeaConfig(m=6, kappa=20.0, mode="biased", standard_grover=True)
        Q = iteration_matrix(cfg, evo, y)
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(1024))) <= 1e-9

    def test_ladder_composition_matches_block_diagonal(self):
        H = random_psd_matrix(4, 2, seed=10)
        evo = encoding.make_evolution(H, m=3)
        dense = ladder_matrix(evo, m=3)
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        mat /= np.linalg.norm(mat)
        out = RegisterState(mat.reshape(-1), 3, 2)
        for q in range(3):
            out = controlled_power_apply(evo, 3 - 1 - q, out, control_qubit=q)
        assert np.max(np.abs(out.amplitudes - dense @ mat.reshape(-1))) <= 1e-12

    @pytest.mark.parametrize("backend", ["exact_exponential", "linearized"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_phase_table_ladder_matches_block_diagonal(self, sign, backend):
        H = random_psd_matrix(8, 3, seed=17)
        evo = encoding.make_evolution(H, m=4, backend=backend)
        assert coordinate_ladder_gap(evo, 4, sign, np.random.default_rng(18)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 3), rank_frac=st.floats(0.0, 1.0),
           cplx=st.booleans(), sign=st.sampled_from([1, -1]),
           backend=st.sampled_from(["exact_exponential", "linearized"]),
           seed=st.integers(0, 2**32 - 1))
    def test_rank_restricted_ladder_matches_dense(self, m, n, rank_frac, cplx, sign, backend, seed):
        # the table covers the nonzero eigenphases only; the null space is left as it is
        N = 2**n
        rank = round(rank_frac * N)
        assume(rank > 0 or backend == "exact_exponential")  # k = 0 cannot be linearized
        rng = np.random.default_rng(seed)
        gauss = rng.normal(size=(N, N)) + (1j * rng.normal(size=(N, N)) if cplx else 0.0)
        Q, _ = np.linalg.qr(gauss)
        lam = np.zeros(N)
        lam[:rank] = rng.uniform(0.3, 1.0, size=rank)
        H = (Q * lam) @ Q.conj().T
        H = (H + H.conj().T) / 2
        # explicit t: the automatic window needs m >= 2
        evo = encoding.make_evolution(H, m=m, backend=backend,
                                      t=0.9 if backend == "exact_exponential" else None)
        assert evo.eigenvectors.dtype == (np.complex128 if cplx else np.float64)
        assert encoding.ladder_phase_table(evo, m).shape == (2**m, rank)
        assert coordinate_ladder_gap(evo, m, sign, rng) <= 1e-12


def coordinate_ladder_gap(evo, m, sign, rng):
    """Distance of the phase table, with a one for a unit null-space column,
    applied to coordinates S on B = [V_nz, that column] from the dense ladder
    applied to S B^T.  A full-rank operator gets a zero column."""
    null = evo.eigenvectors[:, ~evo.nonzero_mask()]
    z = rng.normal(size=null.shape[1]) + 1j * rng.normal(size=null.shape[1])
    B = np.column_stack([evo.nonzero_basis, null @ (z / (np.linalg.norm(z) or 1.0))])
    S = rng.normal(size=(2**m, B.shape[1])) + 1j * rng.normal(size=(2**m, B.shape[1]))
    S /= np.linalg.norm(S)
    table = encoding.ladder_phase_table(evo, m)
    table = np.hstack([table if sign > 0 else table.conj(), np.ones((2**m, 1))])
    dense = ladder_matrix(evo, m, sign=sign) @ (S @ B.T).reshape(-1)
    return np.max(np.abs(((S * table) @ B.T).reshape(-1) - dense))


def reshaped_p0(vec, nq, q):
    """P0 of qubit q, summed over the other axes of the (2, ..., 2) tensor."""
    return np.sum(np.take((np.abs(vec) ** 2).reshape([2] * nq), 0, axis=q))


def dense_observables(vec, m, n, target):
    """Success, marked, fidelity and phase-qubit P0s of a flat state, computed
    independently of the engine's helpers."""
    mat = vec.reshape(2**m, 2**n)
    marginals = [reshaped_p0(vec, m + n, q) for q in range(m)]
    marked = np.linalg.norm(qpea.marking_vector(m).conj() @ mat) ** 2
    fid = np.linalg.norm(mat @ target.conj()) ** 2
    return np.array([1.0 - np.sum(np.abs(mat[0]) ** 2), marked, fid, *marginals])


def dense_run(cfg, evo, H, y, max_iter, stop_tol):
    """Observables per iterate, final state and stopping iterate (on phase
    qubit 0) from stepping the dense iterate Q from A |0,0>."""
    m, n = cfg.m, evo.n_qubits
    target, _ = classical.projector_target(H, y)
    Q = iteration_matrix(cfg, evo, y)
    vec = bpea_matrix(cfg, evo, y)[:, 0]
    rows = [dense_observables(vec, m, n, target)]
    gaps = []
    for t in range(1, max_iter + 1):
        vec = Q @ vec
        rows.append(dense_observables(vec, m, n, target))
        if stop_tol is not None:
            gaps.append(abs(reshaped_p0(vec, m + n, 0) - 0.5))
            if gaps[-1] <= stop_tol:
                return np.array(rows), vec, t, gaps
    return np.array(rows), vec, None, gaps


class TestEngineMatchesDenseOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 4),
        dim=st.sampled_from([2, 4, 8]),
        kappa=st.floats(0.0, 20.0, allow_nan=False),
        mode=st.sampled_from(["qft", "biased"]),
        standard=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_amplify_steps_dense_iterate(self, m, dim, kappa, mode, standard, seed):
        H = random_psd_matrix(dim, 1 + seed % (dim - 1), seed)
        y = random_range_input(H, seed + 1, overlap_sq=(0.05, 0.95))
        evo = encoding.make_evolution(H, m=m, t=0.9 / np.max(np.linalg.eigvalsh(H)))
        cfg = qpea.PeaConfig(m=m, kappa=kappa, mode=mode, standard_grover=standard)
        steps = 6
        final, traj = qpea.amplify(cfg, evo, y, max_iter=steps, stop_tol=None)

        rows, vec, _, _ = dense_run(cfg, evo, H, y, steps, None)
        got = np.column_stack([traj.success_prob, traj.marked_prob, traj.fidelity,
                               traj.phase_marginals])
        assert got.shape == rows.shape
        assert np.max(np.abs(got - rows)) <= 1e-10
        assert np.max(np.abs(final.amplitudes - vec)) <= 1e-10
        assert np.array_equal(traj.qubit0_p0, traj.phase_marginals[:, 0])


class TestAmplifyMany:
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 4),
        dim=st.sampled_from([2, 4, 8]),
        kappa=st.floats(0.0, 20.0, allow_nan=False),
        mode=st.sampled_from(["qft", "biased"]),
        standard=st.booleans(),
        stopping=st.booleans(),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_each_input_steps_dense_iterate(self, m, dim, kappa, mode, standard, stopping,
                                            data, seed):
        H = random_psd_matrix(dim, 1 + seed % (dim - 1), seed)
        evo = encoding.make_evolution(H, m=m, t=0.9 / np.max(np.linalg.eigvalsh(H)))
        cfg = qpea.PeaConfig(m=m, kappa=kappa, mode=mode, standard_grover=standard)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        z[0] = abs(z[0]) * np.exp(0.7j)  # non-real leading amplitude
        ys = [random_range_input(H, seed + 1, overlap_sq=(0.05, 0.95)), z / np.linalg.norm(z),
              random_range_input(H, seed + 2, overlap_sq=(0.05, 0.95))]
        max_iter = 6
        stop_tol = data.draw(st.floats(0.01, 0.3)) if stopping else None
        runs = qpea.amplify_many(cfg, evo, ys, max_iter=max_iter, stop_tol=stop_tol)
        assert len(runs) == len(ys)
        for y, (final, traj) in zip(ys, runs):
            rows, vec, stopped_at, gaps = dense_run(cfg, evo, H, y, max_iter, stop_tol)
            # a marginal within rounding of the tolerance may stop either way
            assume(all(abs(g - stop_tol) > 1e-9 for g in gaps))
            got = np.column_stack([traj.success_prob, traj.marked_prob, traj.fidelity,
                                   traj.phase_marginals])
            assert traj.stopped_at == stopped_at
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows)) <= 1e-10
            assert np.max(np.abs(final.amplitudes - vec)) <= 1e-10

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_input_raises_before_iterating(self, position, monkeypatch):
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
        good = [np.array([0.0, 0.0, 0.6, 0.8]), np.array([0.5, 0.5, 0.5, 0.5])]
        iterates = []
        step = qpea._Pipeline.iterate
        monkeypatch.setattr(qpea._Pipeline, "iterate",
                            lambda *a: iterates.append(1) or step(*a))
        for bad, error, match in ((np.array([0.0, 0.0, 1.0, 1.0]), ValueError, "unit norm"),
                                  (np.array([0.6, 0.8, 0.0, 0.0]), DegenerateTargetError, "null"),
                                  (np.ones(8) / np.sqrt(8), ValueError, "does not match")):
            ys = good[:position] + [bad] + good[position:]
            with pytest.raises(error, match=match):
                qpea.amplify_many(cfg, evo, ys, max_iter=3, stop_tol=None)
        assert iterates == []

    def test_amplify_is_single_input_case(self):
        H = random_psd_matrix(8, 3, seed=25)
        evo = encoding.make_evolution(H, m=4)
        ys = [random_range_input(H, seed=s, overlap_sq=(0.2, 0.95)) for s in (25, 26)]
        for standard in (False, True):
            cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=standard)
            runs = qpea.amplify_many(cfg, evo, ys, max_iter=8, stop_tol=0.05)
            for y, (final, traj) in zip(ys, runs):
                single, straj = qpea.amplify(cfg, evo, y, max_iter=8, stop_tol=0.05)
                assert np.array_equal(final.amplitudes, single.amplitudes)
                assert np.array_equal(traj.fidelity, straj.fidelity)
                assert traj.stopped_at == straj.stopped_at
        assert qpea.amplify_many(cfg, evo, [], max_iter=3) == []

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 4),
        rank_frac=st.floats(0.0, 1.0),
        mode=st.sampled_from(["qft", "biased"]),
        kinds=st.lists(st.sampled_from(["real", "complex", "nu0", "nonreal_y0"]),
                       min_size=1, max_size=6),
        stop_tol=st.none() | st.floats(0.01, 0.3),
        max_iter=st.integers(0, 16),
        row_block=st.integers(1, 8),
        chunk=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_batch_matches_each_input_stepped(self, m, n, rank_frac, mode, kinds, stop_tol,
                                              max_iter, row_block, chunk, seed):
        # one closed form over K = 1..6 inputs, read `chunk` inputs at a time
        # with rows in blocks of 1-8, so stops land in the same and in
        # different blocks; each input against its own stepped run, and the
        # similarity read on coefficients against the one of the built array
        N = 2**n
        H = random_psd_matrix(N, max(1, round(rank_frac * N)), seed)
        evo = encoding.make_evolution(H, m=m, t=0.9 / np.max(np.linalg.eigvalsh(H)))
        cfg = qpea.PeaConfig(m=m, kappa=1.0 if mode == "biased" else 0.0, mode=mode,
                             standard_grover=True)
        V = evo.nonzero_basis
        rng = np.random.default_rng(seed)
        ys = []
        for kind in kinds:
            if kind == "nu0":  # inside the nonzero eigenspace: nu is zero up to rounding
                z = V @ (rng.normal(size=V.shape[1]) + 1j * rng.normal(size=V.shape[1]))
            else:
                z = rng.normal(size=N) + (0.0 if kind == "real" else 1j * rng.normal(size=N))
            if kind == "nonreal_y0":
                z[0] = (abs(z[0]) + 0.1) * np.exp(0.7j)
            ys.append(z / np.linalg.norm(z))
        per_input = 2**m * (V.shape[1] + 1)
        with mock.patch.object(qpea, "_ROW_BLOCK", row_block), \
                mock.patch.object(qpea, "_BATCH_ELEMENTS", chunk * per_input):
            runs = qpea.amplify_many(cfg, evo, ys, max_iter=max_iter, stop_tol=stop_tol)
        assert len(runs) == len(ys)
        for y, (final, traj) in zip(ys, runs):
            ref_final, ref = qpea.amplify_stepped(cfg, evo, y, max_iter=max_iter,
                                                  stop_tol=stop_tol)
            # a marginal within rounding of the tolerance may stop either way
            if stop_tol is not None:
                assume(np.all(np.abs(np.abs(ref.qubit0_p0[1:] - 0.5) - stop_tol) > 1e-9))
            got, want = (np.column_stack([t.success_prob, t.marked_prob, t.fidelity,
                                          t.phase_marginals]) for t in (traj, ref))
            assert traj.stopped_at == ref.stopped_at
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10
            assert np.max(np.abs(final.amplitudes - ref_final.amplitudes)) <= 1e-10
            assert abs(readout.register_similarity(final, y)
                       - np.sum(np.abs(final.as_matrix() @ y.conj()) ** 2)) <= 1e-12

    def test_final_coordinate_state_norm_checked(self, monkeypatch):
        # the final state is held on coordinates, and RegisterState holds
        # those coordinates to NORM_TOL
        H = random_psd_matrix(8, 3, seed=29)
        y = random_range_input(H, seed=29, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        rotate = qpea._rotate

        def leaky(*args):
            finals, trajs = rotate(*args)
            return (1.0 + 1e-8) * finals, trajs

        monkeypatch.setattr(qpea, "_rotate", leaky)
        with pytest.raises(ValueError, match="state norm 1.00000001 is not 1"):
            qpea.amplify_many(cfg, evo, [y], max_iter=5, stop_tol=None)


class TestAmplify:
    def test_full_rank_fidelity_high_at_start(self):
        # no zero eigenvalues: the target is y itself and fidelity starts near 1
        rng = np.random.default_rng(12)
        y = rng.normal(size=4)
        y /= np.linalg.norm(y)
        # equal eigenvalues: one common phase state, fidelity exactly 1
        evo = encoding.make_evolution(2.0 * np.eye(4), m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        _, traj = qpea.amplify(cfg, evo, y, max_iter=2, stop_tol=None)
        assert traj.fidelity[0] >= 1.0 - 1e-10
        # spread spectrum: phase-register entanglement costs a little
        evo = encoding.make_evolution(random_psd_matrix(4, 4, seed=12, eig_range=(1.0, 2.0)), m=4)
        _, traj = qpea.amplify(cfg, evo, y, max_iter=2, stop_tol=None)
        assert traj.fidelity[0] >= 0.9

    def test_degenerate_input_rejected_before_iterating(self):
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased")
        y = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateTargetError):
            qpea.amplify(cfg, evo, y, max_iter=3)

    def test_max_iter_zero_records_initial_only(self):
        H = random_psd_matrix(4, 2, seed=13)
        y = random_range_input(H, seed=13, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased")
        _, traj = qpea.amplify(cfg, evo, y, max_iter=0, stop_tol=None)
        assert len(traj) == 1
        assert traj.iterations.tolist() == [0]

    def test_early_stop_allocates_only_run_iterates(self):
        # the trajectory grows with the iterates run, not with max_iter
        H = random_psd_matrix(4, 2, seed=13)
        y = random_range_input(H, seed=13, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
        tracemalloc.start()
        try:
            _, traj = qpea.amplify(cfg, evo, y, max_iter=10**8, stop_tol=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.stopped_at == 1  # every marginal is within 0.5 of 0.5
        assert peak < 2**20

    def test_amplify_builds_one_register_state(self, monkeypatch):
        # observables and the stopping marginal read the array, not a RegisterState copy
        built = []

        class CountingState(RegisterState):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(qpea, "RegisterState", CountingState)
        H = random_psd_matrix(8, 3, seed=23)
        y = random_range_input(H, seed=23, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        qpea.amplify(cfg, evo, y, max_iter=10, stop_tol=1e-6)
        assert len(built) == 1

    def test_norm_drift_raises(self):
        H = random_psd_matrix(4, 2, seed=24)
        y = random_range_input(H, seed=24, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=3)
        leaky = dataclasses.replace(evo, eigenvectors=evo.eigenvectors * 1.001)
        for standard in (False, True):
            cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=standard)
            # caught on the first record, not only when the final state is built
            with pytest.raises(ValueError, match="not 1 at iteration 0"):
                qpea.amplify(cfg, leaky, y, max_iter=3, stop_tol=None)

    def test_norm_preserved_every_iteration(self):
        H = random_psd_matrix(8, 3, seed=14)
        y = random_range_input(H, seed=14, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=4)
        for standard in (False, True):
            cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=standard)
            final, traj = qpea.amplify(cfg, evo, y, max_iter=12, stop_tol=None)
            assert abs(np.linalg.norm(final.amplitudes) - 1.0) <= 1e-10
            total = traj.success_prob + (1.0 - traj.success_prob)
            assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_closed_form_two_plane_rotation(self):
        # standard-grover variant: marked projection follows sin^2((2t+1) theta)
        for seed in (0, 1, 2):
            H = random_psd_matrix(16, 6, seed=seed)
            y = random_range_input(H, seed=seed, overlap_sq=(0.2, 0.9))
            evo = encoding.make_evolution(H, m=6)
            cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
            _, traj = qpea.amplify(cfg, evo, y, max_iter=25, stop_tol=None)
            theta = np.arcsin(np.sqrt(traj.marked_prob[0]))
            predicted = np.sin((2 * traj.iterations + 1) * theta) ** 2
            assert np.max(np.abs(traj.marked_prob - predicted)) <= 1e-6

    def test_zero_hamiltonian_success_stays_zero(self):
        # H = 0: nothing to amplify in biased mode, success stays identically 0
        evo = encoding.make_evolution(np.zeros((4, 4)), m=3)
        rng = np.random.default_rng(15)
        y = rng.normal(size=4)
        y /= np.linalg.norm(y)
        for standard in (False, True):
            cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=standard)
            Q = iteration_matrix(cfg, evo, y)
            A = bpea_matrix(cfg, evo, y)
            vec = np.zeros(32, dtype=complex)
            vec[0] = 1.0
            vec = A @ vec
            for _ in range(5):
                state = RegisterState(vec, 3, 2)
                assert qpea.success_probability(state) <= 1e-12
                vec = Q @ vec

    def test_stopping_rule_halts_near_equal_superposition(self):
        H = random_psd_matrix(16, 6, seed=16)
        y = random_range_input(H, seed=16, overlap_sq=(0.3, 0.8))
        evo = encoding.make_evolution(H, m=6)
        cfg = qpea.PeaConfig(m=6, kappa=20.0, mode="biased", standard_grover=True)
        _, traj = qpea.amplify(cfg, evo, y, max_iter=40, stop_tol=0.05)
        assert traj.stopped_at is not None
        assert abs(traj.qubit0_p0[-1] - 0.5) <= 0.05
        # the stopped state is near the fidelity peak
        assert traj.fidelity[-1] >= 0.8

    def test_stagnation_at_critical_bias(self):
        for seed in (0, 3, 8):
            H = random_psd_matrix(16, 6, seed=seed)
            y = random_range_input(H, seed=seed, overlap_sq=(0.25, 0.9))
            evo = encoding.make_evolution(H, m=6)
            cfg = qpea.PeaConfig(m=6, kappa=8.0, mode="biased", standard_grover=True)
            _, traj = qpea.amplify(cfg, evo, y, max_iter=1, stop_tol=None)
            assert abs(traj.success_prob[1] - traj.success_prob[0]) <= 0.02

    def test_bias_shortens_first_peak_monotonically(self):
        # fixed instance, bias grid straddling the stagnation point
        H = random_psd_matrix(16, 6, seed=21)
        y = random_range_input(H, seed=21, overlap_sq=(0.25, 0.9))
        evo = encoding.make_evolution(H, m=6)
        peaks = []
        for kappa in (1.0, 12.0, 20.0):
            cfg = qpea.PeaConfig(m=6, kappa=kappa, mode="biased", standard_grover=True)
            _, traj = qpea.amplify(cfg, evo, y, max_iter=40, stop_tol=None)
            peaks.append(traj.first_fidelity_peak())
        assert peaks[0] >= peaks[1] >= peaks[2]


def no_marking(self, mat, a, W):
    """The standard iterate without R_mark: unitary, but off the two-plane rotation."""
    return mat - 2.0 * np.vdot(a, mat) * a


class TestClosedForm:
    @pytest.mark.parametrize("marked", [False, True])
    def test_degenerate_plane_is_constant(self, marked, monkeypatch):
        # a hand-built initial state with no marked part (theta = 0) or only a
        # marked part (theta = pi/2): Q maps a to -a or to a.  One phase qubit
        # makes the marked vector |1>, so the other part is exactly zero.  The
        # state is set on y's own coordinates, so it maps back to phase (x) y.
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=1, t=0.3)
        cfg = qpea.PeaConfig(m=1, kappa=1.0, mode="biased", standard_grover=True)
        y = np.array([0.0, 0.6, 0.8, 0.0])
        phase = np.eye(2)[1 if marked else 0]
        a = np.outer(phase, y).astype(complex)
        monkeypatch.setattr(qpea._Pipeline, "initial",  # one input's coordinates, or a stack
                            lambda self, coords: (phase[:, None] * coords[..., None, :]) + 0j)
        final, traj = qpea.amplify(cfg, evo, y, max_iter=7, stop_tol=None)
        got = np.column_stack([traj.success_prob, traj.marked_prob, traj.fidelity,
                               traj.phase_marginals])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - got[0])) <= 1e-12
        assert traj.marked_prob[0] == pytest.approx(float(marked), abs=1e-12)
        assert traj.theta == pytest.approx(np.pi / 2 if marked else 0.0, abs=1e-12)
        assert traj.rotation_residual <= 1e-12
        sign = 1.0 if marked else -1.0  # seven iterates of Q a = -a flip the sign
        assert np.max(np.abs(final.as_matrix() - sign * a)) <= 1e-12

    def test_iterate_without_marking_raises(self, monkeypatch):
        H = random_psd_matrix(8, 3, seed=30)
        y = random_range_input(H, seed=30, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        monkeypatch.setattr(qpea._Pipeline, "iterate", no_marking)
        with pytest.raises(ValueError, match="leaves the two-plane rotation"):
            qpea.amplify(cfg, evo, y, max_iter=5, stop_tol=None)

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_stop_at_block_boundary_matches_dense(self, offset, monkeypatch):
        # blocks of T + 1 + offset rows put the stopping iterate T last in its
        # block (0), first in the next (-1), second (-2) or next to last (1)
        H = random_psd_matrix(8, 3, seed=17)
        y = random_range_input(H, seed=17, overlap_sq=(0.3, 0.8))
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        rows, vec, stop, gaps = dense_run(cfg, evo, H, y, 40, 0.02)
        assert stop == 8
        assert all(abs(g - 0.02) > 1e-9 for g in gaps)
        monkeypatch.setattr(qpea, "_ROW_BLOCK", stop + 1 + offset)
        final, traj = qpea.amplify(cfg, evo, y, max_iter=40, stop_tol=0.02)
        assert traj.stopped_at == stop
        got = np.column_stack([traj.success_prob, traj.marked_prob, traj.fidelity,
                               traj.phase_marginals])
        assert got.shape == rows.shape
        assert np.max(np.abs(got - rows)) <= 1e-10
        assert np.max(np.abs(final.amplitudes - vec)) <= 1e-10

    @pytest.mark.parametrize("mode, kappa", [("qft", 0.0), ("biased", 1.0), ("biased", 20.0)])
    def test_theta_and_optimal_iterations(self, mode, kappa):
        H = random_psd_matrix(16, 6, seed=31)
        y = random_range_input(H, seed=31, overlap_sq=(0.25, 0.9))
        evo = encoding.make_evolution(H, m=6)
        cfg = qpea.PeaConfig(m=6, kappa=kappa, mode=mode, standard_grover=True)
        _, traj = qpea.amplify(cfg, evo, y, max_iter=60, stop_tol=None)
        assert traj.theta == pytest.approx(np.arcsin(np.sqrt(traj.marked_prob[0])), abs=1e-12)
        t_star = traj.optimal_iterations
        assert 0 < 2 * t_star + 1 <= 60
        assert traj.marked_prob[t_star] == np.max(traj.marked_prob[:2 * t_star + 2])
        assert traj.rotation_residual <= qpea.ROTATION_TOL

    def test_verbatim_iterate_has_no_rotation(self):
        H = random_psd_matrix(8, 3, seed=32)
        y = random_range_input(H, seed=32, overlap_sq=(0.2, 0.95))
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=False)
        _, traj = qpea.amplify(cfg, evo, y, max_iter=3, stop_tol=None)
        assert (traj.theta, traj.optimal_iterations, traj.rotation_residual) == (None, None, None)


def assert_matches_dense(cfg, evo, H, y, max_iter=8, run=qpea.amplify):
    final, traj = run(cfg, evo, y, max_iter=max_iter, stop_tol=None)
    rows, vec, _, _ = dense_run(cfg, evo, H, y, max_iter, None)
    got = np.column_stack([traj.success_prob, traj.marked_prob, traj.fidelity,
                           traj.phase_marginals])
    assert got.shape == rows.shape
    assert np.max(np.abs(got - rows)) <= 1e-10
    assert np.max(np.abs(final.amplitudes - vec)) <= 1e-10


class TestCoordinates:
    """The state held on an input's coordinates [V_nz, y_null], against the dense oracle."""

    @pytest.mark.parametrize("standard", [True, False])
    def test_input_in_nonzero_eigenspace(self, standard):
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=standard)
        # exact eigenvectors: y has no null-space part at all, and its column is zero
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=3)
        y = np.array([0.0, 0.0, 0.6, 0.8])
        inp = qpea._Pipeline(cfg, evo).load(y)
        assert inp.coords[-1] == 0.0
        assert not np.any(inp.y_null)
        assert_matches_dense(cfg, evo, H, y)
        # a random eigenspace: the null-space part is rounding only
        H = random_psd_matrix(8, 3, seed=40)
        evo = encoding.make_evolution(H, m=3)
        c = np.random.default_rng(40).normal(size=3)
        y = evo.nonzero_basis @ (c / np.linalg.norm(c))
        assert qpea._Pipeline(cfg, evo).load(y).coords[-1] <= 1e-14
        assert_matches_dense(cfg, evo, H, y)

    @pytest.mark.parametrize("mode, kappa", [("qft", 0.0), ("biased", 1.0)])
    def test_full_rank(self, mode, kappa):
        H = random_psd_matrix(8, 8, seed=41, eig_range=(1.0, 2.0))
        evo = encoding.make_evolution(H, m=4)
        assert evo.nonzero_basis.shape[1] == 8
        rng = np.random.default_rng(41)
        y = rng.normal(size=8)
        y /= np.linalg.norm(y)
        for standard in (True, False):
            cfg = qpea.PeaConfig(m=4, kappa=kappa, mode=mode, standard_grover=standard)
            assert_matches_dense(cfg, evo, H, y)

    @pytest.mark.parametrize("mode, kappa", [("qft", 0.0), ("biased", 1.0)])
    def test_complex_hamiltonian(self, mode, kappa):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        H = A @ A.conj().T
        evo = encoding.make_evolution(H, m=4, t=0.9 / np.max(np.linalg.eigvalsh(H)))
        assert np.iscomplexobj(evo.nonzero_basis)
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        y /= np.linalg.norm(y)
        for standard in (True, False):
            cfg = qpea.PeaConfig(m=4, kappa=kappa, mode=mode, standard_grover=standard)
            assert_matches_dense(cfg, evo, H, y)

    def test_batch_stops_on_both_sides_of_a_block_boundary(self, monkeypatch):
        # with blocks of 6 rows the inputs stop at iterates 1 and 5 (first
        # block), 8, 13 (later blocks) and not at all
        H = random_psd_matrix(8, 3, seed=17)
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        ys = [random_range_input(H, seed=s, overlap_sq=ov) for s, ov in (
            (17, (0.8, 0.99)), (17, (0.05, 0.2)), (17, (0.3, 0.8)), (26, (0.3, 0.8)),
            (28, (0.3, 0.8)))]
        monkeypatch.setattr(qpea, "_ROW_BLOCK", 6)
        runs = qpea.amplify_many(cfg, evo, ys, max_iter=40, stop_tol=0.02)
        stops = []
        for y, (final, traj) in zip(ys, runs):
            rows, vec, stop, gaps = dense_run(cfg, evo, H, y, 40, 0.02)
            assert all(abs(g - 0.02) > 1e-9 for g in gaps)
            got = np.column_stack([traj.success_prob, traj.marked_prob, traj.fidelity,
                                   traj.phase_marginals])
            assert traj.stopped_at == stop
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows)) <= 1e-10
            assert np.max(np.abs(final.amplitudes - vec)) <= 1e-10
            stops.append(stop)
        assert stops == [1, 5, 8, 13, None]

    @pytest.mark.parametrize("run", [qpea.amplify, qpea.amplify_stepped])
    @pytest.mark.parametrize("standard", [True, False])
    def test_no_register_array_before_the_final_map(self, standard, run, monkeypatch):
        # N = 256, rank 2, m = 6: one (2^m, N) complex array is 256 KiB, the
        # coordinates (2^m, 4) take 4 KiB; no N x N load is built either.
        # The final map to the register is the first read of the amplitudes
        H = random_psd_matrix(256, 2, seed=44)
        evo = encoding.make_evolution(H, m=6)
        z = np.random.default_rng(44).normal(size=256)
        inside = evo.nonzero_basis @ (evo.nonzero_basis.T @ z)
        outside = z - inside
        y = 0.6 * inside / np.linalg.norm(inside) + 0.8 * outside / np.linalg.norm(outside)
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=standard)
        shapes = []
        iterate = qpea._Pipeline.iterate

        def recording_iterate(self, mat, *args):
            shapes.append(mat.shape)
            return iterate(self, mat, *args)

        monkeypatch.setattr(qpea._Pipeline, "iterate", recording_iterate)
        tracemalloc.start()
        try:
            final, _ = run(cfg, evo, y, max_iter=20, stop_tol=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        closed_form = standard and run is qpea.amplify  # one checked iterate on (1, 2^m, r+1)
        if closed_form:
            assert shapes == [(1, 2**6, 3)]
        else:
            assert shapes == [(2**6, 4)] * 20
        assert final.coefficients.shape == shapes[0][-2:]
        assert peak < 2**6 * 256 * 16 // 2  # the peak before the final map
        B = np.concatenate(final.columns, axis=1)
        assert np.max(np.abs(final.as_matrix() - final.coefficients @ B.T)) <= 1e-15

    def test_batch_keeps_no_basis_copy_per_input(self):
        # near full rank, as for a graph Laplacian: N = 256, r = 240, m = 3.
        # Every input is loaded before the first iterate, and each keeps O(N)
        # numbers, not its own copy of the (N, r) eigenbasis
        H = random_psd_matrix(256, 240, seed=45, eig_range=(1.0, 2.0))
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
        ys = [random_range_input(H, seed=s, overlap_sq=(0.2, 0.95)) for s in range(45, 53)]
        peaks = []
        for batch in (ys[:1], ys):
            tracemalloc.start()
            try:
                qpea.amplify_many(cfg, evo, batch, max_iter=5, stop_tol=None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < evo.nonzero_basis.nbytes  # 7 more inputs, under one copy

    @pytest.mark.parametrize("standard", [True, False])
    def test_stepped_reference(self, standard):
        H = random_psd_matrix(8, 3, seed=46)
        evo = encoding.make_evolution(H, m=3)
        y = random_range_input(H, seed=46, overlap_sq=(0.2, 0.95))
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=standard)
        assert_matches_dense(cfg, evo, H, y, run=qpea.amplify_stepped)
        final, traj = qpea.amplify_stepped(cfg, evo, y, max_iter=8, stop_tol=0.05)
        assert (traj.theta, traj.rotation_residual) == (None, None)  # stepped, not closed form
        if not standard:  # the verbatim iterate runs this way in amplify
            same_final, same = qpea.amplify(cfg, evo, y, max_iter=8, stop_tol=0.05)
            assert np.array_equal(final.amplitudes, same_final.amplitudes)
            assert np.array_equal(traj.fidelity, same.fidelity)


class TestFactoredState:
    """A state held as coefficients on [V_nz, y_null] (and e_null when
    stepped) against the dense oracle, and its observables, read on the
    coefficients, against the same observables of its built array."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 5), n=st.integers(1, 5), rank_frac=st.floats(0.0, 1.0),
           cplx=st.booleans(), mode=st.sampled_from(["qft", "biased"]),
           kappa=st.floats(0.0, 20.0), standard=st.booleans(),
           entry=st.sampled_from(["phase_estimation", "amplify", "amplify_stepped"]),
           max_iter=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, m, n, rank_frac, cplx, mode, kappa, standard, entry,
                                  max_iter, seed):
        N = 2**n
        rank = round(rank_frac * N)
        assume(rank > 0 or entry == "phase_estimation")  # nothing to amplify at rank 0
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0.0)

        Q, _ = np.linalg.qr(draw(N, N))
        lam = np.zeros(N)
        lam[:rank] = rng.uniform(0.3, 1.0, size=rank)
        H = (Q * lam) @ Q.conj().T
        H = (H + H.conj().T) / 2
        evo = encoding.make_evolution(H, m=m, t=0.9)
        y, z = draw(N), rng.normal(size=N) + 1j * rng.normal(size=N)
        y, z = y / np.linalg.norm(y), z / np.linalg.norm(z)
        cfg = qpea.PeaConfig(m=m, kappa=kappa if mode == "biased" else 0.0, mode=mode,
                             standard_grover=standard)
        if entry == "phase_estimation":
            state = qpea.phase_estimation(cfg, evo, y)
            vec = bpea_matrix(cfg, evo, y)[:, 0]
        else:
            state, _ = getattr(qpea, entry)(cfg, evo, y, max_iter=max_iter, stop_tol=None)
            _, vec, _, _ = dense_run(cfg, evo, H, y, max_iter, None)
        dist = state.phase_distribution()
        sims = [readout.register_similarity(state, v) for v in (y, z)]
        assert "amplitudes" not in vars(state)
        mat = state.as_matrix()
        assert np.max(np.abs(state.amplitudes - vec)) <= 1e-10
        assert np.max(np.abs(dist - qpea.phase_distribution(mat))) <= 1e-12
        for v, sim in zip((y, z), sims):
            assert abs(sim - min(1.0, np.sum(np.abs(mat @ v.conj()) ** 2))) <= 1e-12


class TestVerbatimLoad:
    """The verbatim iterate on [V_nz, y_null, e_null] at the edges of its
    load: a small null part, a load that is a phase only, and no e_null."""

    @pytest.mark.parametrize("mode, kappa", [("qft", 0.0), ("biased", 1.0)])
    @pytest.mark.parametrize("nu", [0.0, 1e-13, 1e-10, 1e-6])
    def test_small_null_part(self, nu, mode, kappa):
        H = random_psd_matrix(8, 3, seed=47)
        evo = encoding.make_evolution(H, m=4)
        rng = np.random.default_rng(47)
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        inside = evo.nonzero_basis @ (evo.nonzero_basis.T @ z)
        outside = z - inside
        y = (np.sqrt(1.0 - nu**2) * inside / np.linalg.norm(inside)
             + nu * outside / np.linalg.norm(outside))
        cfg = qpea.PeaConfig(m=4, kappa=kappa, mode=mode, standard_grover=False)
        assert_matches_dense(cfg, evo, H, y)

    @pytest.mark.parametrize("mode, kappa", [("qft", 0.0), ("biased", 1.0)])
    def test_load_is_a_phase(self, mode, kappa):
        H = random_psd_matrix(8, 3, seed=49)
        evo = encoding.make_evolution(H, m=4)
        y = np.exp(0.7j) * np.eye(8)[0]
        cfg = qpea.PeaConfig(m=4, kappa=kappa, mode=mode, standard_grover=False)
        pipe = qpea._Pipeline(cfg, evo)
        assert pipe.span(pipe.load(y))[1][2] is None  # no Householder axis
        assert_matches_dense(cfg, evo, H, y)

    @pytest.mark.parametrize("mode, kappa", [("qft", 0.0), ("biased", 1.0)])
    def test_e0_in_nonzero_eigenspace(self, mode, kappa):
        H = np.diag([1.0, 0.0, 2.0, 0.0])
        evo = encoding.make_evolution(H, m=4)
        y = np.array([0.5, 0.5, -0.5, 0.5j])
        cfg = qpea.PeaConfig(m=4, kappa=kappa, mode=mode, standard_grover=False)
        pipe = qpea._Pipeline(cfg, evo)
        _, _, (_, y_null, e_null) = pipe.span(pipe.load(y))
        assert np.linalg.norm(y_null) == pytest.approx(1.0) and not np.any(e_null)
        assert_matches_dense(cfg, evo, H, y)


class TestStagnationKappa:
    def test_values(self):
        assert qpea.stagnation_kappa(6) == pytest.approx(8.0)
        assert qpea.stagnation_kappa(4) == pytest.approx(4.0)
        assert qpea.stagnation_kappa(1) == pytest.approx(np.sqrt(2.0))

    def test_mean_amplitude_relation(self):
        # at the critical bias, kappa/mu approximates the balanced mean amplitude
        m = 6
        kappa = qpea.stagnation_kappa(m)
        mu = np.sqrt(kappa**2 + 2**m - 1)
        mean_amp = (np.sqrt(0.5) + np.sqrt(0.5)) / 2.0
        assert abs(kappa / mu - mean_amp) <= 0.01


class TestTrajectory:
    def test_first_peak_detection(self):
        traj = qpea.Trajectory(
            iterations=np.arange(6),
            success_prob=np.zeros(6),
            marked_prob=np.zeros(6),
            fidelity=np.array([0.1, 0.4, 0.9, 0.5, 0.95, 0.2]),
            phase_marginals=np.zeros((6, 2)),
        )
        assert traj.first_fidelity_peak() == 2
        assert traj.peak_fidelity_iteration == 4
        assert traj.peak_fidelity == pytest.approx(0.95)

    def test_first_peak_monotone_rise(self):
        traj = qpea.Trajectory(
            iterations=np.arange(4),
            success_prob=np.zeros(4),
            marked_prob=np.zeros(4),
            fidelity=np.array([0.1, 0.2, 0.3, 0.4]),
            phase_marginals=np.zeros((4, 2)),
        )
        assert traj.first_fidelity_peak() == 3
