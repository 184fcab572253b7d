import dataclasses
import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qspectral import classical, encoding, experiments, numerics, qpea, readout
from qspectral.datasets import random_psd_matrix, random_range_input
from qspectral.errors import DegenerateTargetError
from qspectral.registers import RegisterState

from dense_reference import (_with_system, bpea_matrix, controlled_power_apply, full_state,
                             hadamard_wall, iteration_matrix, ladder_matrix, marking_reflection,
                             null_space_vectors, prepare_unitary, zero_reflection)


def load_one(evo, m, y):
    """One input loaded and projected on its own: its rows (y, coords, y_null)."""
    engine = qpea._engine(evo, m)
    inputs = engine.project([engine.load(y)])
    return inputs.ys[0], inputs.coords[0], inputs.y_null[0]


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
        # bit for bit, and both the uniform superposition over the nonzero phases
        for m in range(1, 21):
            uniform = np.ones(2**m, dtype=complex)
            uniform[0] = 0.0
            uniform /= np.sqrt(2**m - 1)
            f2 = qpea.marking_vector(m)
            assert f2.tobytes() == qpea.bias_vector(m, 0.0).tobytes() == uniform.tobytes(), m

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qpea.bias_vector(3, -1.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_rejects_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            qpea.bias_vector(3, kappa)
        with pytest.raises(ValueError, match="kappa must be finite"):
            qpea.PeaConfig(m=3, kappa=kappa, mode="biased")

    @pytest.mark.parametrize("m", [True, 6.0, 2.5, 0])
    @pytest.mark.parametrize("call", [
        lambda m: qpea.bias_vector(m, 1.0),
        qpea.marking_vector,
        qpea.stagnation_kappa,
        lambda m: qpea.PeaConfig(m=m, kappa=1.0, mode="biased"),
    ], ids=["bias_vector", "marking_vector", "stagnation_kappa", "PeaConfig"])
    def test_one_phase_width_rule(self, m, call):
        with pytest.raises(ValueError, match=rf"^m must be an integer >= 1, got {m!r}$"):
            call(m)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -1.0, True, False, np.True_])
    def test_one_kappa_rule(self, kappa):
        messages = []
        for call in (lambda: qpea.bias_vector(3, kappa),
                     lambda: qpea.PeaConfig(m=3, kappa=kappa, mode="biased")):
            with pytest.raises(ValueError) as err:
                call()
            messages.append(str(err.value))
        assert messages == [f"kappa must be finite and nonnegative, got {kappa}"] * 2


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
        assert qpea.success_probability(full_state(amps, 2, 1)) == 0.0

    def test_marking_vector_phase(self):
        f2 = qpea.marking_vector(2)
        sys = np.array([1.0, 0.0], dtype=complex)
        state = full_state(np.kron(f2, sys), 2, 1)
        assert qpea.success_probability(state) == pytest.approx(1.0)

    def test_uniform_phase(self):
        m = 3
        amps = np.kron(np.full(2**m, 1.0 / np.sqrt(2**m)), np.array([1.0, 0.0]))
        state = full_state(amps.astype(complex), m, 1)
        assert qpea.success_probability(state) == pytest.approx(1.0 - 1.0 / 2**m)


class TestWalshHadamard:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_hadamard_wall(self, m):
        rng = np.random.default_rng(m)
        mat = rng.normal(size=(2**m, 3)) + 1j * rng.normal(size=(2**m, 3))
        want = hadamard_wall(m) @ mat
        assert np.max(np.abs(qpea._walsh_hadamard(mat.copy()) - want)) <= 1e-12


class TestRegisterStateOwnership:
    def test_later_writes_to_the_callers_array_do_not_reach_the_state(self):
        amps = np.zeros(8, dtype=complex)
        amps[3] = 1.0
        state = full_state(amps, 2, 1)
        amps[3], amps[0] = 0.0, 1.0
        assert (state.coefficients.flat[3], state.coefficients.flat[0]) == (1.0, 0.0)
        # a read-only view of a writeable array can still change: copied too
        base = np.zeros(8, dtype=complex)
        base[5] = 1.0
        view = base.view()
        view.flags.writeable = False
        state = full_state(view, 2, 1)
        base[5], base[1] = 0.0, 1.0
        assert (state.coefficients.flat[5], state.coefficients.flat[1]) == (1.0, 0.0)
        assert (state.amplitudes[5], state.amplitudes[1]) == (1.0, 0.0)
        assert not state.coefficients.flags.writeable
        assert not state.amplitudes.flags.writeable

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="is not 1"):
            full_state(np.full(8, np.nan, dtype=complex), 2, 1)
        with pytest.raises(ValueError, match="is not 1"):
            RegisterState(np.full((4, 2), np.nan, dtype=complex), 2, 2, (np.eye(4)[:, :2],))
        with pytest.raises(ValueError, match="is not 1 at iteration 0"):
            qpea._check_norm(np.nan, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must have 4 rows"):
            RegisterState(np.eye(4, 2), 2, 2, (np.eye(8)[:, :2],))
        with pytest.raises(ValueError, match="expected 8 coefficients, got 6"):
            RegisterState(np.eye(2, 3), 2, 2, (np.eye(4)[:, :2],))

    def test_fewer_rows_than_the_register(self):
        # N = 3 rows on a 2-qubit system register: system row 3 is zero
        B = np.eye(3)[:, :2]
        state = RegisterState(np.eye(1, 8, 3)[0], 2, 2, (B[:, 0], B[:, 1:]))  # S[1, 1] = 1
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(state.amplitudes, expected.ravel())
        with pytest.raises(ValueError, match="as many in each block"):
            RegisterState(np.eye(4, 2), 2, 2, (np.eye(3)[:, :1], np.eye(4)[:, :1]))

    def test_empty_columns_rejected(self):
        # a state always lives on columns; there is no implicit identity basis
        with pytest.raises(ValueError, match="columns must hold at least one block"):
            RegisterState(np.eye(4, 1).ravel(), 2, 0, columns=())
        with pytest.raises(TypeError, match="columns"):
            RegisterState(np.eye(8, 1).ravel(), 2, 1)

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
            mat = state.amplitudes.reshape(2**state.m, 2**state.n)
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
        out = full_state(mat.reshape(-1), 3, 2)
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
        assert evo.nonzero_basis.dtype == (np.complex128 if cplx else np.float64)
        assert encoding.ladder_phase_table(evo, m).shape == (2**m, rank)
        assert coordinate_ladder_gap(evo, m, sign, rng) <= 1e-12


def coordinate_ladder_gap(evo, m, sign, rng):
    """Distance of the phase table, with a one for a unit null-space column,
    applied to coordinates S on B = [V_nz, that column] from the dense ladder
    applied to S B^T.  A full-rank operator gets a zero column."""
    full_rank = evo.nonzero_basis.shape[1] == evo.dim
    z = np.zeros(evo.dim) if full_rank else null_space_vectors(evo, rng, 1)[:, 0]
    B = np.column_stack([evo.nonzero_basis, z / (np.linalg.norm(z) or 1.0)])
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
    """Success, marked, fidelity and phase qubit 0's P0 of a flat state,
    computed independently of the engine's helpers."""
    mat = vec.reshape(2**m, 2**n)
    marked = np.linalg.norm(qpea.marking_vector(m).conj() @ mat) ** 2
    fid = np.linalg.norm(mat @ target.conj()) ** 2
    return np.array([1.0 - np.sum(np.abs(mat[0]) ** 2), marked, fid,
                     reshaped_p0(vec, m + n, 0)])


def dense_run(cfg, evo, H, y, max_iter, stop_tol):
    """Observables per iterate, final state and stopping iterate (on phase
    qubit 0) from stepping the dense iterate Q from A |0,0>."""
    m, n = cfg.m, evo.dim.bit_length() - 1
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
                               traj.qubit0_p0])
        assert got.shape == rows.shape
        assert np.max(np.abs(got - rows)) <= 1e-10
        assert np.max(np.abs(final.amplitudes - vec)) <= 1e-10


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
                                   traj.qubit0_p0])
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

    @pytest.mark.parametrize("bad", ["max_iter", "dim", "unit", "null", "no_nonzero"])
    def test_stepped_refuses_as_the_batch_does(self, bad):
        # amplify_stepped takes amplify_many's checks and load: the same
        # exception type and message for each bad call
        H = np.zeros((4, 4)) if bad == "no_nonzero" else np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
        y = {"dim": np.ones(8) / np.sqrt(8), "unit": np.array([0.0, 0.0, 1.0, 1.0]),
             "null": np.array([0.6, 0.8, 0.0, 0.0])}.get(bad, np.array([0.5, 0.5, 0.5, 0.5]))
        max_iter = -1 if bad == "max_iter" else 3
        errors = []
        for call in (lambda: qpea.amplify_stepped(cfg, evo, y, max_iter=max_iter),
                     lambda: qpea.amplify_many(cfg, evo, [y], max_iter=max_iter)):
            with pytest.raises(ValueError) as err:
                call()
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("first, second, error, match", [
        ("null", "unit", DegenerateTargetError, "null"),
        ("unit", "null", ValueError, "unit norm"),
        ("null", "dim", DegenerateTargetError, "null"),
        ("dim", "unit", ValueError, "does not match"),
    ])
    def test_earlier_bad_input_raises_first(self, first, second, error, match):
        # two different bad inputs in one batch: the error is the earlier one's
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
        bad = {"unit": np.array([0.0, 0.0, 1.0, 1.0]), "null": np.array([0.6, 0.8, 0.0, 0.0]),
               "dim": np.ones(8) / np.sqrt(8)}
        good = np.array([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(error, match=match):
            qpea.amplify_many(cfg, evo, [good, bad[first], good, bad[second]], max_iter=3)

    def test_failure_in_third_input_of_a_chunk(self, monkeypatch):
        # four inputs in one chunk; a norm or rotation failure of the third one
        # raises the message that input raises when it runs alone
        H = random_psd_matrix(8, 3, seed=29)
        evo = encoding.make_evolution(H, m=4)
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        ys = [random_range_input(H, seed=s, overlap_sq=(0.2, 0.95)) for s in (29, 30, 31, 32)]
        assert 4 * 2**4 * 4 <= qpea._BATCH_ELEMENTS
        rotate = qpea._rotate

        def leaky(*args):
            finals, trajs = rotate(*args)
            finals[2] *= 1.0 + 1e-8
            return finals, trajs

        monkeypatch.setattr(qpea, "_rotate", leaky)
        with pytest.raises(ValueError, match=r"^state norm 1.00000001 is not 1$"):
            qpea.amplify_many(cfg, evo, ys, max_iter=5, stop_tol=None)
        monkeypatch.setattr(qpea, "_rotate", rotate)

        step = qpea._Pipeline.iterate
        messages = []
        for batch, index in ((ys, 2), (ys[2:3], 0)):
            def turned(self, mat, a, W, index=index):  # unit norm, off the two-plane rotation
                out = step(self, mat, a, W)
                out[index] *= np.exp(0.1j)
                return out

            monkeypatch.setattr(qpea._Pipeline, "iterate", turned)
            with pytest.raises(ValueError, match="leaves the two-plane rotation") as err:
                qpea.amplify_many(cfg, evo, batch, max_iter=5, stop_tol=None)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

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
                                          t.qubit0_p0]) for t in (traj, ref))
            assert traj.stopped_at == ref.stopped_at
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10
            assert np.max(np.abs(final.amplitudes - ref_final.amplitudes)) <= 1e-10
            mat = final.amplitudes.reshape(2**final.m, 2**final.n)
            assert abs(readout.register_similarity(final, y)
                       - np.sum(np.abs(mat @ y.conj()) ** 2)) <= 1e-12

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


class TestConfigPerInput:
    """One amplify_many call with a config per input: each run against its own amplify."""

    @pytest.mark.parametrize("cfgs, match", [
        ([qpea.PeaConfig(m=3, mode="qft")], "1 configs for 2 inputs"),
        ([qpea.PeaConfig(m=3, mode="qft"), qpea.PeaConfig(m=4, kappa=1.0, mode="biased")],
         "share m and standard_grover"),
        ([qpea.PeaConfig(m=3, mode="qft"),
          qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=False)],
         "share m and standard_grover"),
    ])
    def test_bad_configs_raise_before_any_work(self, cfgs, match, monkeypatch):
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=4)
        ys = [np.array([0.0, 0.0, 0.6, 0.8]), np.array([0.5, 0.5, 0.5, 0.5])]
        work = []
        monkeypatch.setattr(qpea, "ladder_phase_table", lambda *a: work.append("table"))
        monkeypatch.setattr(qpea._Pipeline, "iterate", lambda *a: work.append("iterate"))
        with pytest.raises(ValueError, match=match):
            qpea.amplify_many(cfgs, evo, ys, max_iter=3, stop_tol=None)
        assert work == []

    def test_no_inputs(self):
        evo = encoding.make_evolution(np.diag([0.0, 1.0]), m=2)
        cfg = qpea.PeaConfig(m=2, kappa=1.0, mode="biased")
        assert qpea.amplify_many(cfg, evo, [], max_iter=3) == []
        assert qpea.amplify_many([], evo, [], max_iter=3) == []

    @pytest.mark.parametrize("standard", [True, False])
    def test_repeated_input_loaded_once(self, standard, monkeypatch):
        H = random_psd_matrix(8, 3, seed=50)
        evo = encoding.make_evolution(H, m=4)
        y, z = (random_range_input(H, seed=s, overlap_sq=(0.2, 0.95)) for s in (50, 51))
        cfgs = [qpea.PeaConfig(m=4, kappa=kappa, mode=mode, standard_grover=standard)
                for mode, kappa in (("qft", 0.0), ("biased", 1.0), ("biased", 20.0),
                                    ("biased", 1.0))]
        loads, engines = [], []
        load, init = qpea._Engine.load, qpea._Engine.__init__
        monkeypatch.setattr(qpea._Engine, "load", lambda self, v: loads.append(1) or load(self, v))
        monkeypatch.setattr(qpea._Engine, "__init__",
                            lambda self, *a: engines.append(1) or init(self, *a))
        runs = qpea.amplify_many(cfgs, evo, [y, y, z, y], max_iter=6, stop_tol=None)
        assert (len(loads), len(engines)) == (2, 1)
        for cfg, v, (final, traj) in zip(cfgs, [y, y, z, y], runs):
            single, straj = qpea.amplify(cfg, evo, v, max_iter=6, stop_tol=None)
            assert (traj.mode, traj.kappa) == (cfg.mode, cfg.kappa)
            assert np.array_equal(traj.fidelity, straj.fidelity)
            assert np.array_equal(final.amplitudes, single.amplitudes)

    def test_trace_suite_is_one_batch(self, monkeypatch):
        # the three runs of a suite share one engine: one ladder table, y loaded once
        tables, loads = [], []
        build, load = qpea.ladder_phase_table, qpea._Engine.load
        monkeypatch.setattr(qpea, "ladder_phase_table",
                            lambda *args: tables.append(1) or build(*args))
        monkeypatch.setattr(qpea._Engine, "load", lambda self, v: loads.append(1) or load(self, v))
        H, y = experiments.figure_instance(3)
        evo = encoding.make_evolution(H, m=6)
        results = experiments.trace_suite(H, y, m=6, max_iter=20, evo=evo)
        assert (len(tables), len(loads)) == (1, 1)
        assert [(r.mode, r.kappa) for r in results] == list(experiments.DEFAULT_RUNS)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 4),
        rank_frac=st.floats(0.0, 1.0),
        runs=st.lists(st.tuples(st.sampled_from(["qft", "biased"]),
                                st.floats(0.0, 50.0) | st.just("stagnation"),
                                st.integers(0, 2)),  # which of three inputs the run reads
                      min_size=1, max_size=6),
        stop_tol=st.none() | st.floats(0.01, 0.3),
        standard=st.booleans(),
        max_iter=st.integers(0, 12),
        chunk=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_mixed_batch_matches_each_run_alone(self, m, n, rank_frac, runs, stop_tol,
                                                standard, max_iter, chunk, seed):
        # chunks of 1-5 inputs split the batch anywhere, and an input object may
        # be read by several runs of different configs
        N = 2**n
        H = random_psd_matrix(N, max(1, round(rank_frac * N)), seed)
        evo = encoding.make_evolution(H, m=m, t=0.9 / np.max(np.linalg.eigvalsh(H)))
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(3):
            z = rng.normal(size=N) + 1j * rng.normal(size=N)
            inputs.append(z / np.linalg.norm(z))
        cfgs = [qpea.PeaConfig(m=m, mode=mode, standard_grover=standard,
                               kappa=0.0 if mode == "qft" else qpea.stagnation_kappa(m)
                               if kappa == "stagnation" else kappa)
                for mode, kappa, _ in runs]
        ys = [inputs[j] for _, _, j in runs]
        with mock.patch.object(qpea, "_BATCH_ELEMENTS",
                               chunk * 2**m * (evo.nonzero_basis.shape[1] + 1)):
            batch = qpea.amplify_many(cfgs, evo, ys, max_iter=max_iter, stop_tol=stop_tol)
        assert len(batch) == len(runs)
        for cfg, y, (final, traj) in zip(cfgs, ys, batch):
            ref_final, ref = qpea.amplify(cfg, evo, y, max_iter=max_iter, stop_tol=stop_tol)
            if stop_tol is not None:  # a marginal within rounding of the tolerance
                assume(np.all(np.abs(np.abs(ref.qubit0_p0[1:] - 0.5) - stop_tol) > 1e-12))
            assert traj.stopped_at == ref.stopped_at
            assert (traj.theta, traj.optimal_iterations) == (ref.theta, ref.optimal_iterations)
            assert (traj.mode, traj.kappa) == (ref.mode, ref.kappa) == (cfg.mode, cfg.kappa)
            got, want = (np.column_stack([t.iterations, t.success_prob, t.marked_prob,
                                          t.fidelity, t.qubit0_p0]) for t in (traj, ref))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13
            assert np.max(np.abs(final.amplitudes - ref_final.amplitudes)) <= 1e-12


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
        leaky = dataclasses.replace(evo, nonzero_basis=evo.nonzero_basis * 1.001)
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
                state = full_state(vec, 3, 2)
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
        init = qpea._Pipeline.__init__

        def hand_built(self, *args):  # U_pea|0> = phase on every coordinate column
            init(self, *args)
            self.initial_table = np.repeat(phase[:, None] + 0j, self.initial_table.shape[1], axis=1)

        monkeypatch.setattr(qpea._Pipeline, "__init__", hand_built)
        final, traj = qpea.amplify(cfg, evo, y, max_iter=7, stop_tol=None)
        got = np.column_stack([traj.success_prob, traj.marked_prob, traj.fidelity,
                               traj.qubit0_p0])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - got[0])) <= 1e-12
        assert traj.marked_prob[0] == pytest.approx(float(marked), abs=1e-12)
        assert traj.theta == pytest.approx(np.pi / 2 if marked else 0.0, abs=1e-12)
        assert traj.rotation_residual <= 1e-12
        sign = 1.0 if marked else -1.0  # seven iterates of Q a = -a flip the sign
        mat = final.amplitudes.reshape(2**final.m, 2**final.n)
        assert np.max(np.abs(mat - sign * a)) <= 1e-12

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
                               traj.qubit0_p0])
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
                           traj.qubit0_p0])
    assert got.shape == rows.shape
    assert np.max(np.abs(got - rows)) <= 1e-10
    assert np.max(np.abs(final.amplitudes - vec)) <= 1e-10


def complex_product_load(V, y):
    """An input's coordinates (c, nu) on [V, y_null] and y_null from complex
    products with V, projected off it twice, under the same halving rule."""
    coords, rest, norms_sq = 0.0, y, []
    for _ in range(2):
        d = (rest.conj() @ V.astype(complex)).conj()
        coords, rest = coords + d, rest - V.astype(complex) @ d
        norms_sq.append(np.vdot(rest, rest).real)
    nu = np.sqrt(norms_sq[1]) if norms_sq[1] > 0.25 * norms_sq[0] else 0.0
    return np.append(coords, nu), rest / nu if nu else np.zeros_like(rest)


class TestLoad:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), rank_frac=st.floats(0.0, 1.0), cplx=st.booleans(),
           kind=st.sampled_from(["generic", "near", "inside"]), seed=st.integers(0, 2**32 - 1))
    def test_real_arithmetic_load_matches_complex_product(self, n, rank_frac, cplx, kind, seed):
        # a real V_nz multiplies the real and imaginary parts of y as one real
        # product; against complex products: coordinates and nu y_null within
        # 1e-14 (y_null itself when nu is not small) and the same nu = 0
        # decision.  An input inside span V_nz has a remainder of pure
        # rounding, so its eigenvectors are exact here (a permuted diagonal H)
        N = 2**n
        rank = max(1, round(rank_frac * N))
        rng = np.random.default_rng(seed)
        if kind == "inside":
            Q = np.eye(N)[rng.permutation(N)] * (1j if cplx else 1.0)
        else:
            Q, _ = np.linalg.qr(rng.normal(size=(N, N))
                                + (1j * rng.normal(size=(N, N)) if cplx else 0.0))
        lam = np.zeros(N)
        lam[:rank] = rng.uniform(0.3, 1.0, size=rank)
        H = (Q * lam) @ Q.conj().T
        evo = encoding.make_evolution((H + H.conj().T) / 2, m=3, t=0.9 / lam.max())
        V = evo.nonzero_basis
        z = V @ (rng.normal(size=V.shape[1]) + 1j * rng.normal(size=V.shape[1]))
        if kind != "inside":
            w = rng.normal(size=N) + 1j * rng.normal(size=N)
            z = z + (1e-4 if kind == "near" else 1.0) * np.linalg.norm(z) * w / np.linalg.norm(w)
        y = z / np.linalg.norm(z)
        _, got_coords, got_y_null = load_one(evo, 3, y)
        coords, y_null = complex_product_load(V, y)
        assert (got_coords[-1] == 0.0) == (coords[-1] == 0.0)
        assert np.max(np.abs(got_coords - coords)) <= 1e-14
        assert np.max(np.abs(got_coords[-1] * got_y_null - coords[-1] * y_null)) <= 1e-14
        if kind == "generic":
            assert np.max(np.abs(got_y_null - y_null)) <= 1e-14
        if kind == "inside":
            assert coords[-1] == 0.0

    def test_inputs_loaded_together_are_projected_together(self, monkeypatch):
        # one stacked projection for every loaded input, each row its own:
        # the same coordinates as each input loaded alone
        H = random_psd_matrix(16, 5, seed=51)
        ys = [random_range_input(H, seed=s, overlap_sq=(0.2, 0.95)) for s in range(51, 55)]
        evo = encoding.make_evolution(H, m=4)
        projections = []
        extend = qpea._extend
        monkeypatch.setattr(qpea, "_extend",
                            lambda B, V: projections.append(len(V)) or extend(B, V))
        engine = qpea._engine(evo, 4)
        loaded = [engine.load(y) for y in ys]
        assert projections == []
        together = engine.project(loaded)
        assert projections == [4]
        for y, coords, y_null in zip(ys, together.coords, together.y_null):
            _, alone_coords, alone_y_null = load_one(evo, 4, y)
            assert np.array_equal(alone_coords, coords) and np.array_equal(alone_y_null, y_null)


class TestEngineCache:
    """One estimation engine per (operator, m), kept on the operator."""

    def test_engine_frees_the_operator(self):
        # the engine holds no reference to its operator, so reference counting
        # alone frees the operator (and its engines) with its last reference
        H, y = experiments.figure_instance(4)
        evo = encoding.make_evolution(H, m=6)
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        qpea.amplify(cfg, evo, y, max_iter=1)
        assert set(evo.engines) == {6}
        ref = weakref.ref(evo)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del evo
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_one_ladder_table_per_operator_and_width(self, monkeypatch):
        tables = []
        build = qpea.ladder_phase_table
        monkeypatch.setattr(qpea, "ladder_phase_table",
                            lambda *args: tables.append(args[1]) or build(*args))
        H, y = experiments.figure_instance(5)
        evo = encoding.make_evolution(H, m=6)
        experiments.trace_suite(H, y, m=6, max_iter=20, evo=evo)
        stall = qpea.PeaConfig(m=6, kappa=8.0, mode="biased", standard_grover=True)
        qpea.amplify(stall, evo, y, max_iter=1, stop_tol=None)
        assert tables == [6]
        qpea.amplify(dataclasses.replace(stall, m=7), evo, y, max_iter=1, stop_tol=None)
        assert tables == [6, 7]
        qpea.phase_estimation(stall, evo, y)
        qpea.amplify_stepped(stall, evo, y, max_iter=1)
        assert tables == [6, 7]

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (1, 1.0),
                                               (189812546, 189812546.0)])
    def test_phase_gate_cache_keeps_each_kappa_bits(self, first, second):
        # kappas that compare equal share one cached gate, so that gate must
        # have the bits each builds fresh: the bias norm takes an int as its float
        H, y = experiments.figure_instance(2)
        evo = encoding.make_evolution(H, m=6)

        def run(kappa):
            cfg = qpea.PeaConfig(m=6, kappa=kappa, mode="biased", standard_grover=True)
            state, traj = qpea.amplify(cfg, evo, y, max_iter=3, stop_tol=None)
            return [state.coefficients.tobytes()] + [
                np.asarray(getattr(traj, f.name)).tobytes() for f in dataclasses.fields(traj)]

        qpea._phase_gate.cache_clear()
        shared = [run(first), run(second)]
        fresh = []
        for kappa in (first, second):
            qpea._phase_gate.cache_clear()
            fresh.append(run(kappa))
        assert shared == fresh
        if first == 189812546:  # the final states; the trajectories record kappa's type
            assert fresh[0][0] == fresh[1][0]

    def test_operator_arrays_are_read_only(self):
        # the cached engine is built from them, so they cannot change under it
        evo = encoding.make_evolution(random_psd_matrix(8, 3, seed=7), m=4)
        for array in (evo.eigenvalues, evo.nonzero_basis, evo.eigenphases):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_non_power_of_two_runs_as_padded(self):
        # N rows run as the operator zero-padded to 2^n: padding adds only
        # null directions, which the coordinates never reach
        rng = np.random.default_rng(35)
        for N in (3, 5, 6, 7, 12):
            n = (N - 1).bit_length()
            H = random_psd_matrix(N, max(1, N // 2), seed=N, eig_range=(0.5, 1.0))
            padded = np.zeros((2**n, 2**n))
            padded[:N, :N] = H
            y = rng.normal(size=N) + 1j * rng.normal(size=N)
            y /= np.linalg.norm(y)
            y_padded = np.concatenate([y, np.zeros(2**n - N)])
            evo, evo_padded = (encoding.make_evolution(h, m=4) for h in (H, padded))
            for standard in (True, False):
                for mode in ("qft", "biased"):
                    cfg = qpea.PeaConfig(m=4, kappa=1.0, mode=mode, standard_grover=standard)
                    state, traj = qpea.amplify(cfg, evo, y, max_iter=12)
                    state_padded, traj_padded = qpea.amplify(cfg, evo_padded, y_padded,
                                                             max_iter=12)
                    assert (state.n, state.columns[0].shape[0]) == (n, N)
                    assert state.amplitudes.shape == state_padded.amplitudes.shape
                    assert np.max(np.abs(state.amplitudes - state_padded.amplitudes)) <= 1e-12
                    assert abs(readout.register_similarity(state, y)
                               - readout.register_similarity(state_padded, y_padded)) <= 1e-12
                    assert (traj.stopped_at, traj.optimal_iterations, len(traj)) == (
                        traj_padded.stopped_at, traj_padded.optimal_iterations, len(traj_padded))
                    assert (traj.theta is None) == (not standard)
                    if standard:
                        assert abs(traj.theta - traj_padded.theta) <= 1e-12
                    for f in ("success_prob", "marked_prob", "fidelity", "qubit0_p0"):
                        assert np.max(np.abs(getattr(traj, f) - getattr(traj_padded, f))) <= 1e-12


class TestCoordinates:
    """The state held on an input's coordinates [V_nz, y_null], against the dense oracle."""

    @pytest.mark.parametrize("standard", [True, False])
    def test_input_in_nonzero_eigenspace(self, standard):
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=standard)
        # exact eigenvectors: y has no null-space part at all, and its column is zero
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        evo = encoding.make_evolution(H, m=3)
        y = np.array([0.0, 0.0, 0.6, 0.8])
        _, coords, y_null = load_one(evo, cfg.m, y)
        assert coords[-1] == 0.0
        assert not np.any(y_null)
        assert_matches_dense(cfg, evo, H, y)
        # a random eigenspace: the null-space part is rounding only
        H = random_psd_matrix(8, 3, seed=40)
        evo = encoding.make_evolution(H, m=3)
        c = np.random.default_rng(40).normal(size=3)
        y = evo.nonzero_basis @ (c / np.linalg.norm(c))
        assert load_one(evo, cfg.m, y)[1][-1] <= 1e-14
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
                                   traj.qubit0_p0])
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
        mat = final.amplitudes.reshape(2**final.m, 2**final.n)
        assert np.max(np.abs(mat - final.coefficients @ B.T)) <= 1e-15

    def test_batch_keeps_no_basis_copy_per_input(self):
        # near full rank, as for a graph Laplacian: N = 256, r = 240, m = 3.
        # Every input is loaded before the first iterate, and each keeps O(N)
        # numbers, not its own copy of the (N, r) eigenbasis.  The engine is
        # built before both windows, so neither counts it
        H = random_psd_matrix(256, 240, seed=45, eig_range=(1.0, 2.0))
        evo = encoding.make_evolution(H, m=3)
        cfg = qpea.PeaConfig(m=3, kappa=1.0, mode="biased", standard_grover=True)
        ys = [random_range_input(H, seed=s, overlap_sq=(0.2, 0.95)) for s in range(45, 53)]
        qpea.amplify_many(cfg, evo, ys[:1], max_iter=5, stop_tol=None)
        peaks = []
        for batch in (ys[:1], ys):
            tracemalloc.start()
            try:
                qpea.amplify_many(cfg, evo, batch, max_iter=5, stop_tol=None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 7 more inputs, under half of what a basis copy per input would add
        assert peaks[1] - peaks[0] < 7 * evo.nonzero_basis.nbytes / 2

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
        mat = state.amplitudes.reshape(2**state.m, 2**state.n)
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
        engine = qpea._engine(evo, cfg.m)
        assert engine.span(*load_one(evo, cfg.m, y))[1][2] is None  # no Householder axis
        assert_matches_dense(cfg, evo, H, y)

    @pytest.mark.parametrize("mode, kappa", [("qft", 0.0), ("biased", 1.0)])
    def test_e0_in_nonzero_eigenspace(self, mode, kappa):
        H = np.diag([1.0, 0.0, 2.0, 0.0])
        evo = encoding.make_evolution(H, m=4)
        y = np.array([0.5, 0.5, -0.5, 0.5j])
        cfg = qpea.PeaConfig(m=4, kappa=kappa, mode=mode, standard_grover=False)
        engine = qpea._engine(evo, cfg.m)
        _, _, (_, y_null, e_null) = engine.span(*load_one(evo, cfg.m, y))
        assert np.linalg.norm(y_null) == pytest.approx(1.0) and not np.any(e_null)
        assert_matches_dense(cfg, evo, H, y)


class TestStagnationKappa:
    def test_values(self):
        assert qpea.stagnation_kappa(6) == pytest.approx(8.0)
        assert qpea.stagnation_kappa(4) == pytest.approx(4.0)
        assert qpea.stagnation_kappa(1) == pytest.approx(np.sqrt(2.0))

    def test_float_arithmetic_for_every_width(self):
        # sqrt(2^m) of a Python int failed in numpy from m = 64 on
        for m in range(1, 64):
            assert qpea.stagnation_kappa(m) == float(np.sqrt(2**m)), m
        assert qpea.stagnation_kappa(64) == 2.0**32
        assert qpea.stagnation_kappa(np.int64(64)) == 2.0**32
        assert qpea.stagnation_kappa(1100) == 2.0**550
        assert qpea.stagnation_kappa(2047) == np.sqrt(2.0) * 2.0**1023
        for m in (2048, 10**6):
            with pytest.raises(ValueError, match=rf"past the float range at m={m}$"):
                qpea.stagnation_kappa(m)

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
            qubit0_p0=np.zeros(6),
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
            qubit0_p0=np.zeros(4),
        )
        assert traj.first_fidelity_peak() == 3
