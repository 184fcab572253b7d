import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectral import numerics
from qspectral.errors import ConvergenceError


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.conj().T) / 2


def random_unit(dim, seed, complex_=True):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_ else 0.0)
    return v / np.linalg.norm(v)


class TestHermitianEig:
    def test_diagonal_sorted(self):
        w, V = numerics.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # eigenvectors are permuted identity columns
        assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])

    def test_two_node_path(self):
        w, _ = numerics.hermitian_eig(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(w, [0.0, 2.0], atol=1e-12)

    def test_reconstruction_8x8(self):
        A = random_hermitian(8, 0)
        w, V = numerics.hermitian_eig(A)
        assert np.max(np.abs((V * w) @ V.conj().T - A)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            numerics.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            numerics.hermitian_eig(np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_reconstruction_and_orthonormality(self, dim, seed):
        A = random_hermitian(dim, seed)
        w, V = numerics.hermitian_eig(A)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.max(np.abs(V.conj().T @ V - np.eye(dim))) <= 1e-10
        assert np.max(np.abs((V * w) @ V.conj().T - A)) <= 1e-10


def low_rank_psd(dim, rank, seed, cplx=False, scale=1.0, extra=(), decades=None):
    """PSD matrix with ``rank`` eigenvalues in [0.3, 1] * scale (log-spaced
    from 10**-decades * scale up to scale when ``decades`` is given), then the
    values of ``extra``, and zeros elsewhere, in a random eigenbasis the seed
    fixes; returns it and its eigenvalues."""
    rng = np.random.default_rng(seed)
    gauss = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if cplx else 0.0)
    Q, _ = np.linalg.qr(gauss)
    lam = np.zeros(dim)
    if decades is None:
        lam[:rank] = scale * rng.uniform(0.3, 1.0, size=rank)
    else:
        lam[:rank] = scale * np.logspace(-decades, 0.0, rank)
    lam[rank:rank + len(extra)] = extra
    H = (Q * lam) @ Q.conj().T
    return (H + H.conj().T) / 2, lam


def eigh_route(A):
    """nonzero_eigh's result on the full-eigh route, with its columns sliced out."""
    w, V = numerics.hermitian_eig(A)
    return w, V[:, np.abs(w) > numerics.ZERO_RTOL * numerics.matrix_1norm(A)]


class TestNonzeroEigh:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 40), rank_frac=st.floats(0.0, numerics.FACTOR_MAX_RANK),
           cplx=st.booleans(), log_scale=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1),
           decades=st.one_of(st.none(), st.floats(0.0, 5.0)))
    def test_factor_route_matches_eigh(self, dim, rank_frac, cplx, log_scale, seed, decades):
        # called directly, without the size gate; every eigenvalue sits at least
        # 0.3 * scale (spread over up to 5 decades: 10 * zero_tol) from zero, so
        # the zero/nonzero split is resolvable.  The spread probes the basis
        # F^T u / sqrt(theta), whose orthonormality error grows like
        # eps sqrt(scale / theta); much past 5 decades eps ||H|| / theta_min,
        # the reference eigh's own projector error, nears the 1e-10 bound.
        rank = int(rank_frac * dim)
        H, lam = low_rank_psd(dim, rank, seed, cplx, 10.0**log_scale, decades=decades)
        norm1 = numerics.matrix_1norm(H)
        zero_tol = numerics.ZERO_RTOL * max(norm1, 1e-300)
        assert np.all(lam[:rank] >= 10 * zero_tol)
        found = numerics._factor_eigh(H, zero_tol, max(1.0, norm1))
        assert found is not None
        w, V = found
        w_ref, V_ref = np.linalg.eigh(H)
        assert np.array_equal(np.abs(w) > zero_tol, np.abs(w_ref) > zero_tol)
        assert np.all(w[np.abs(w) <= zero_tol] == 0.0)
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.linalg.norm(H, 2)
        assert V.shape == (dim, rank) and V.dtype == H.dtype
        V_ref = V_ref[:, np.abs(w_ref) > zero_tol]
        assert np.max(np.abs(V @ V.conj().T - V_ref @ V_ref.conj().T), initial=0.0) <= 1e-10

    def test_below_the_gate_is_the_eigh_route(self):
        H, _ = low_rank_psd(numerics.FACTOR_MIN_DIM - 1, 6, seed=1)
        w, V, zero_tol, norm1 = numerics.nonzero_eigh(H)
        w_ref, V_ref = eigh_route(H)
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)
        assert norm1 == numerics.matrix_1norm(H) and zero_tol == numerics.ZERO_RTOL * norm1

    def test_factor_route_at_the_gate(self):
        H, _ = low_rank_psd(numerics.FACTOR_MIN_DIM, 16, seed=2, cplx=True)
        w, V, zero_tol, _ = numerics.nonzero_eigh(H)
        assert np.count_nonzero(w) == V.shape[1] == 16  # null eigenvalues are exact zeros
        w_ref, V_ref = eigh_route(H)
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.linalg.norm(H, 2)
        assert np.max(np.abs(V @ V.conj().T - V_ref @ V_ref.conj().T)) <= 1e-10

    @pytest.mark.parametrize("case", ["indefinite", "indefinite past the factor",
                                      "rank above the cap", "straddling zero_tol"])
    def test_fallback_is_the_eigh_route(self, case):
        dim = numerics.FACTOR_MIN_DIM
        if case == "indefinite":
            H, _ = low_rank_psd(dim, 8, seed=3)
            H = H - 0.5 * np.outer(np.eye(dim)[0], np.eye(dim)[0])
        elif case == "indefinite past the factor":
            # eigenvalues +-0.5 on the first two coordinates, which the PSD part
            # leaves empty: the remainder has a zero diagonal, so the Cholesky
            # stops before them, and only the Frobenius check sees them
            H = np.zeros((dim, dim))
            H[2:, 2:] = low_rank_psd(dim - 2, 8, seed=3)[0]
            H[0, 1] = H[1, 0] = 0.5
            assert numerics._pivoted_cholesky(H, 1e-12, dim).shape == (8, dim)
        elif case == "rank above the cap":
            # tr(H)^2 / ||H||_F^2 stays below the cap, so the Cholesky itself passes it
            cap = int(numerics.FACTOR_MAX_RANK * dim)
            H, _ = low_rank_psd(dim, cap + 1, seed=4)
            assert np.trace(H) ** 2 <= cap * np.linalg.norm(H) ** 2
            assert numerics._pivoted_cholesky(H, 1e-12, cap) is None
        else:  # five eigenvalues on either side of zero_tol, whose null part is too large to drop
            zero_tol = numerics.ZERO_RTOL * numerics.matrix_1norm(low_rank_psd(dim, 8, seed=5)[0])
            H, _ = low_rank_psd(dim, 8, seed=5, extra=zero_tol * np.array([0.8, 0.8, 0.8, 0.8, 1.2]))
        norm1 = numerics.matrix_1norm(H)
        assert numerics._factor_eigh(H, numerics.ZERO_RTOL * norm1, max(1.0, norm1)) is None
        w, V, _, _ = numerics.nonzero_eigh(H)
        w_ref, V_ref = eigh_route(H)
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)

    @pytest.mark.parametrize("case", ["graph Laplacian", "full rank"])
    def test_high_rank_input_skips_the_factor(self, case, monkeypatch):
        # tr(H)^2 / ||H||_F^2 bounds the rank from below; past the cap the full
        # eigh runs without a single Cholesky step
        dim = numerics.FACTOR_MIN_DIM
        if case == "graph Laplacian":  # rank dim - 1
            W = np.triu(np.random.default_rng(6).uniform(size=(dim, dim)), 1)
            W = W + W.T
            H = np.diag(W.sum(axis=1)) - W
        else:
            H, _ = low_rank_psd(dim, dim, seed=7)
        calls = []
        monkeypatch.setattr(numerics, "_pivoted_cholesky", lambda *args: calls.append(args))
        w, V, _, _ = numerics.nonzero_eigh(H)
        assert calls == []
        w_ref, V_ref = eigh_route(H)
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)

    def test_refuses_non_hermitian(self):
        A = np.eye(numerics.FACTOR_MIN_DIM)
        A[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            numerics.nonzero_eigh(A)


class TestInputArithmetic:
    """Real matrices stay real; complex ones stay complex."""

    def test_as_matrix_dtypes(self):
        assert numerics.as_matrix([[1, 2], [3, 4]]).dtype == np.float64
        assert numerics.as_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
        assert numerics.as_matrix(np.eye(2) + 0j).dtype == np.complex128

    def test_real_symmetric_gets_real_eigenvectors(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        A = (A + A.T) / 2
        w, V = numerics.hermitian_eig(A)
        assert V.dtype == np.float64 and w.dtype == np.float64
        assert np.max(np.abs((V * w) @ V.T - A)) <= 1e-10
        assert np.max(np.abs(w - np.linalg.eigvalsh(A + 0j))) <= 1e-12

    def test_complex_hermitian_gets_complex_eigenvectors(self):
        _, V = numerics.hermitian_eig(random_hermitian(6, 4))
        assert V.dtype == np.complex128

    @pytest.mark.parametrize("cplx", [False, True])
    def test_symmetry_tolerance_unchanged(self, cplx):
        A = np.diag([1.0, 2.0, 3.0]) + (0j if cplx else 0.0)
        A[0, 1] = 1e-6  # far beyond the default 1e-12 relative tolerance
        with pytest.raises(ValueError, match="Hermitian"):
            numerics.hermitian_eig(A)
        A[1, 0] = 1e-6 + 1e-14
        numerics.hermitian_eig(A)


class TestMatrix1Norm:
    def test_identity(self):
        assert numerics.matrix_1norm(np.eye(4)) == 1.0

    def test_arithmetic(self):
        assert numerics.matrix_1norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0

    def test_diag(self):
        assert numerics.matrix_1norm(np.diag([2.0, 0.0])) == 2.0

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-5.0, 5.0, allow_nan=False))
    def test_homogeneous_and_submultiplicative(self, dim, seed, scale):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        assert numerics.matrix_1norm(scale * A) == pytest.approx(
            abs(scale) * numerics.matrix_1norm(A), rel=1e-12
        )
        assert numerics.matrix_1norm(A @ B) <= (
            numerics.matrix_1norm(A) * numerics.matrix_1norm(B) + 1e-9
        )


class TestReflection:
    def test_basis_axis(self):
        R = numerics.proj_reflection(np.array([1.0, 0.0]))
        assert np.allclose(R, np.diag([-1.0, 1.0]))

    def test_plus_axis(self):
        R = numerics.proj_reflection(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(R, np.array([[0.0, -1.0], [-1.0, 0.0]]), atol=1e-15)

    def test_axis_flipped_complement_fixed(self):
        u = random_unit(6, 3)
        R = numerics.proj_reflection(u)
        assert np.max(np.abs(R @ u + u)) <= 1e-12
        w = random_unit(6, 4)
        w = w - np.vdot(u, w) * u
        w /= np.linalg.norm(w)
        assert np.max(np.abs(R @ w - w)) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            numerics.proj_reflection(np.array([1.0, 1.0]))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_unitary_hermitian_involutory(self, dim, seed):
        R = numerics.proj_reflection(random_unit(dim, seed))
        eye = np.eye(dim)
        assert np.max(np.abs(R.conj().T @ R - eye)) <= 1e-10
        assert np.max(np.abs(R - R.conj().T)) <= 1e-10
        assert np.max(np.abs(R @ R - eye)) <= 1e-10


def test_eig_convergence_error_is_exposed():
    assert issubclass(ConvergenceError, RuntimeError)


class TestHouseholderAxis:
    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), cplx=st.booleans())
    def test_reflection_maps_y_to_phased_e0(self, dim, seed, cplx):
        y = random_unit(dim, seed, cplx)
        w, phase = numerics.householder_axis(y)
        expected = np.zeros(dim, dtype=complex)
        expected[0] = phase
        out = y if w is None else numerics.proj_reflection(w) @ y
        assert abs(abs(phase) - 1.0) <= 1e-15
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_phased_e0_needs_no_reflection(self):
        w, phase = numerics.householder_axis(np.array([1j, 0.0, 0.0]))
        assert w is None
        assert phase == pytest.approx(1j)
