import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectral import classical, encoding, graph, numerics, qpea, readout, registers
from qspectral.datasets import gaussian_blobs, random_psd_matrix, scrambled_indicators

from dense_reference import full_state


def random_unit(dim, seed, complex_=True):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_ else 0.0)
    return v / np.linalg.norm(v)


class TestHouseholderSimilarity:
    def test_same_state(self):
        psi = random_unit(8, 0)
        assert readout.householder_similarity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        y = np.array([0.0, 1.0], dtype=complex)
        assert readout.householder_similarity(psi, y) == pytest.approx(0.0, abs=1e-15)

    def test_half_overlap(self):
        y = np.array([1.0, 0.0], dtype=complex)
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        assert readout.householder_similarity(psi, y) == pytest.approx(0.5)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            readout.householder_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 32), cplx=st.booleans())
    def test_reflection_route_equals_inner_product(self, seed, dim, cplx):
        psi = random_unit(dim, seed, cplx)
        y = random_unit(dim, seed + 1, cplx)
        measured = readout.householder_similarity(psi, y)
        assert abs(measured - abs(np.vdot(y, psi)) ** 2) <= 1e-12

    def test_verbatim_reflection_differs_in_general(self):
        psi = random_unit(6, 2)
        y = random_unit(6, 3)
        reflected = psi - 2.0 * np.vdot(y, psi) * y  # the paper's printed I - 2|y><y|
        literal = min(1.0, abs(reflected[0]) ** 2)
        intended = readout.householder_similarity(psi, y)
        assert abs(literal - intended) > 1e-3  # the printed operator is not the mapping one


class TestDirectSimilarity:
    def test_full_rank_gives_one(self):
        H = random_psd_matrix(6, 6, seed=1, eig_range=(0.5, 1.0))
        y = random_unit(6, 4, complex_=False)
        assert readout.direct_similarity(H, y) == pytest.approx(1.0)

    def test_null_eigenvector_gives_zero(self):
        H = np.diag([0.0, 1.0, 2.0])
        y = np.array([1.0, 0.0, 0.0])
        assert readout.direct_similarity(H, y) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("complex_v", [False, True])
    def test_stack_matches_each_norm(self, complex_v):
        # one stacked product gives each candidate the bits of its own one-row
        # call, and |V^dag y|^2 to rounding
        rng = np.random.default_rng(7)
        A = rng.normal(size=(32, 32)) + (1j * rng.normal(size=(32, 32)) if complex_v else 0.0)
        V = np.linalg.qr(A)[0][:, :9]
        imag = rng.normal(size=(4000, 32)) * (rng.random((4000, 1)) < 0.5)  # half real
        Y = rng.normal(size=(4000, 32)) + 1j * imag
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        stacked = readout.span_similarities(V, Y)
        assert stacked.tolist() == [readout.span_similarities(V, [y])[0] for y in Y]
        norms = np.array([min(1.0, np.linalg.norm(V.conj().T @ y) ** 2) for y in Y])
        assert np.max(np.abs(stacked - norms)) <= 1e-15

    def test_matches_projection_norm(self):
        H = random_psd_matrix(16, 6, seed=5)
        y = random_unit(16, 6, complex_=False)
        w, V = np.linalg.eigh(H)
        keep = np.abs(w) > 1e-8
        expected = float(np.linalg.norm(V[:, keep].T @ y) ** 2)
        assert readout.direct_similarity(H, y) == pytest.approx(expected, abs=1e-10)


class TestXSumExponential:
    def test_single_qubit(self):
        U = readout.x_sum_exponential(1)
        expected = np.array(
            [[np.cos(1.0), 1j * np.sin(1.0)], [1j * np.sin(1.0), np.cos(1.0)]]
        )
        assert np.max(np.abs(U - expected)) <= 1e-15

    def test_two_qubits_is_kron(self):
        U1 = readout.x_sum_exponential(1)
        U2 = readout.x_sum_exponential(2)
        assert np.max(np.abs(U2 - np.kron(U1, U1))) <= 1e-15

    def test_unitary_up_to_eight_qubits(self):
        for n in range(1, 9):
            U = readout.x_sum_exponential(n)
            assert np.max(np.abs(U.conj().T @ U - np.eye(2**n))) <= 1e-12

    def test_commutes_with_qubit_permutation(self):
        U = readout.x_sum_exponential(3)
        # swap qubits 0 and 2 in the tensor index
        P = np.zeros((8, 8))
        for i in range(8):
            b = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
            j = (b[2] << 2) | (b[1] << 1) | b[0]
            P[j, i] = 1.0
        assert np.max(np.abs(P @ U @ P.T - U)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 5))
    def test_uniform_superposition_gains_only_a_global_phase(self, n):
        # |+>^n is an eigenvector of every X_i, so exp(i sum X) |+>^n = e^{in} |+>^n:
        # as an input or output mixer it changes no measured probability
        plus = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        out = readout.x_sum_exponential(n) @ plus
        assert np.max(np.abs(out - np.exp(1j * n) * plus)) <= 1e-12

    def test_matches_matrix_exponential(self):
        n = 3
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        Y = np.zeros((8, 8), dtype=complex)
        for i in range(n):
            term = np.array([[1.0]])
            for j in range(n):
                term = np.kron(term, X if j == i else np.eye(2))
            Y += term
        w, V = np.linalg.eigh(Y)
        expm = (V * np.exp(1j * w)) @ V.conj().T
        assert np.max(np.abs(readout.x_sum_exponential(n) - expm)) <= 1e-12


class TestRegisterSimilarity:
    def test_matches_pure_state_value(self):
        y = random_unit(4, 9, complex_=False)
        amps = np.zeros(16, dtype=complex)
        amps[:4] = random_unit(4, 10, complex_=False)
        state = full_state(amps, 2, 2)
        expected = readout.householder_similarity(amps[:4], y)
        assert readout.register_similarity(state, y) == pytest.approx(expected, abs=1e-12)

    def test_oracle_gap_bounded_by_infidelity(self):
        H = random_psd_matrix(16, 6, seed=20)
        rng = np.random.default_rng(20)
        y = rng.normal(size=16)
        y /= np.linalg.norm(y)
        evo = encoding.make_evolution(H, m=6)
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        _, traj = qpea.amplify(cfg, evo, y, max_iter=60, stop_tol=None)
        peak = traj.peak_fidelity
        # measure at the peak-fidelity state by re-running to that iteration
        state_peak, _ = qpea.amplify(cfg, evo, y, max_iter=traj.peak_fidelity_iteration,
                                     stop_tol=None)
        measured = readout.register_similarity(state_peak, y)
        oracle = readout.direct_similarity(H, y)
        assert abs(measured - oracle) <= (1.0 - peak) + 1e-6


    def test_padded_candidate_reads_as_its_rows(self):
        # N = 6, m = 4: the amplitudes have 2^n = 8 system rows, and an 8-entry
        # candidate zero past row 6 is the 6-entry one
        H = random_psd_matrix(6, 3, seed=36)
        y = random_unit(6, 36)
        state, _ = qpea.amplify(qpea.PeaConfig(m=4, kappa=1.0, mode="biased"),
                                encoding.make_evolution(H, m=4), y, max_iter=12)
        assert state.amplitudes.size == 2**4 * 8
        value = readout.register_similarity(state, y)
        assert readout.register_similarity(state, np.append(y, [0.0, 0.0])) == value
        amps = state.amplitudes.reshape(16, 8)
        assert abs(value - np.linalg.norm(amps @ np.append(y, [0.0, 0.0]).conj()) ** 2) <= 1e-12
        tail = np.append(np.sqrt(1.0 - 1e-6) * y, [1e-3, 0.0])  # unit, nonzero past row 6
        for bad in (tail, y[:5] / np.linalg.norm(y[:5]), np.append(y, np.zeros(10))):
            with pytest.raises(ValueError, match="candidate"):
                readout.register_similarity(state, bad)

    def test_candidate_off_unit_norm_refused(self):
        # 3y once read 1.0, clamped, and 0.5y a quarter of the unit value
        H = random_psd_matrix(8, 3, seed=37)
        y = random_unit(8, 37)
        state, _ = qpea.amplify(qpea.PeaConfig(m=4, kappa=1.0, mode="biased"),
                                encoding.make_evolution(H, m=4), y, max_iter=12)
        for bad in (3.0 * y, 0.5 * y, np.zeros(8)):
            with pytest.raises(ValueError, match="^candidate 0 must be a unit vector"):
                readout.register_similarity(state, bad)
            with pytest.raises(ValueError, match="^candidate 1 must be a unit vector"):
                registers.system_similarities([state] * 3, [y, bad, bad])
        near = y * (1.0 + 5e-9)  # within householder_similarity's 1e-8
        assert abs(readout.register_similarity(state, near)
                   - readout.register_similarity(state, y)) <= 1e-7

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(3, 40).filter(lambda N: N & (N - 1)), rank_frac=st.floats(0.0, 1.0),
           m=st.sampled_from([3, 4, 5]), standard=st.booleans(), seed=st.integers(0, 2**16))
    def test_padding_invariance(self, N, rank_frac, m, standard, seed):
        # a candidate and its zero-padded 2^n form read the same bits
        rank = min(N - 1, 1 + int(rank_frac * (N - 1)))
        H = random_psd_matrix(N, rank, seed=seed, eig_range=(0.5, 1.0))  # resolvable at m = 3
        y, c = random_unit(N, seed), random_unit(N, seed + 1)
        cfg = qpea.PeaConfig(m=m, kappa=1.0, mode="biased", standard_grover=standard)
        state, _ = qpea.amplify(cfg, encoding.make_evolution(H, m=m), y, max_iter=6)
        padded = np.zeros(2**state.n, dtype=complex)
        padded[:N] = c
        assert (state.n, len(padded)) == ((N - 1).bit_length(), 2 ** (N - 1).bit_length())
        assert readout.register_similarity(state, padded) == readout.register_similarity(state, c)
        padded[-1] = 1e-3
        padded /= np.linalg.norm(padded)
        with pytest.raises(ValueError, match=f"zero past row {N}"):
            readout.register_similarity(state, padded)


class TestRankIndicators:
    def test_eigenvector_candidates(self):
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        candidates = [
            classical.IndicatorVector((3,), 4),  # nonzero eigenvalue
            classical.IndicatorVector((0,), 4),  # zero eigenvalue
        ]
        # the zero-eigenvector candidate cannot be amplified at all
        with pytest.raises(Exception):
            readout.rank_indicators(H, candidates, cfg)
        ranked = readout.rank_indicators(H, candidates[:1], cfg)
        assert len(ranked) == 1
        assert ranked[0].rank == 1
        assert ranked[0].similarity == pytest.approx(1.0, abs=1e-6)

    def test_mixed_candidates_rank_by_overlap(self):
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        full = classical.IndicatorVector((2, 3), 4)  # inside the nonzero eigenspace
        half = classical.IndicatorVector((0, 2), 4)  # half in, half out
        ranked = readout.rank_indicators(H, [half, full], cfg)
        assert ranked[0].y_id == full.name
        assert ranked[0].similarity > ranked[1].similarity

    def test_two_blob_ranking_matches_oracle(self):
        pts, labels = gaussian_blobs((4, 4), ((1.0, 0.0), (0.0, 1.0)), 0.08, seed=3)
        H = encoding.points_gram(pts)
        true_inds = classical.indicators_from_labels(labels, 2)
        cands = true_inds + scrambled_indicators(true_inds, seed=4)
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        ranked = readout.rank_indicators(H, cands, cfg)
        by_name = {c.name: c.vector() for c in cands}
        oracle = sorted(
            by_name, key=lambda name: -readout.direct_similarity(H, by_name[name])
        )
        assert [r.y_id for r in ranked] == oracle
        top2 = {ranked[0].y_id, ranked[1].y_id}
        assert top2 == {ind.name for ind in true_inds}

    def test_one_pipeline_for_all_candidates(self, monkeypatch):
        # only the input load differs between candidates: one engine, built once
        # with its ladder table (qpea._Engine), serves the whole batch
        tables = []
        build = qpea.ladder_phase_table
        monkeypatch.setattr(qpea, "ladder_phase_table",
                            lambda *args: tables.append(1) or build(*args))
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        cands = [classical.IndicatorVector(g, 4) for g in ((2, 3), (0, 2), (1, 3))]
        assert len(readout.rank_indicators(H, cands, cfg)) == 3
        assert len(tables) == 1

    def test_ranking_maps_no_candidate_back(self, monkeypatch):
        # candidates are scored on their coordinates: no state builds its amplitudes
        states = []
        amplify_many = readout.amplify_many

        def recording(*args, **kwargs):
            runs = amplify_many(*args, **kwargs)
            states.extend(state for state, _ in runs)
            return runs

        monkeypatch.setattr(readout, "amplify_many", recording)
        pts, labels = gaussian_blobs((4, 4), ((1.0, 0.0), (0.0, 1.0)), 0.08, seed=3)
        true_inds = classical.indicators_from_labels(labels, 2)
        cands = true_inds + scrambled_indicators(true_inds, seed=4)
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        ranked = readout.rank_indicators(encoding.points_gram(pts), cands, cfg)
        assert {r.y_id for r in ranked[:2]} == {ind.name for ind in true_inds}
        assert len(states) == len(cands)
        assert not any("amplitudes" in vars(state) for state in states)

    def test_repeated_candidate_refused_before_amplifying(self, monkeypatch):
        monkeypatch.setattr(readout, "amplify_many", lambda *args, **kwargs: pytest.fail())
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        cands = [classical.IndicatorVector(g, 4) for g in ((2, 3), (1, 3), (3, 2))]
        with pytest.raises(ValueError, match="candidate ind_2-3 is repeated"):
            readout.rank_indicators(H, cands, cfg)

    def test_repeated_candidate_refused_before_eigendecomposition(self, monkeypatch):
        solves = []
        eig = numerics.nonzero_eigh

        def counting(A):
            solves.append(1)
            return eig(A)

        monkeypatch.setattr(numerics, "nonzero_eigh", counting)
        H = np.diag([0.0, 0.0, 1.0, 2.0])
        cfg = qpea.PeaConfig(m=4, kappa=1.0, mode="biased", standard_grover=True)
        cands = [classical.IndicatorVector(g, 4) for g in ((2, 3), (1, 3), (3, 2))]
        with pytest.raises(ValueError, match="candidate ind_2-3 is repeated"):
            readout.cluster_quantum(H, cands, cfg)
        assert solves == []


class TestScrambledIndicators:
    TRUE = [classical.IndicatorVector(g, 8) for g in ((0, 1, 2, 3), (4, 5, 6, 7))]

    def test_first_draw_kept(self):
        perm = np.random.default_rng(4).permutation(range(8)).tolist()
        assert [c.members for c in scrambled_indicators(self.TRUE, seed=4)] == [
            tuple(sorted(perm[:4])), tuple(sorted(perm[4:]))]

    def test_draw_repeating_a_candidate_is_drawn_again(self):
        # seed 41 first draws the true partition
        perm = np.random.default_rng(41).permutation(range(8)).tolist()
        assert sorted(perm[:4]) == [0, 1, 2, 3]
        first = scrambled_indicators(self.TRUE, seed=41)
        second = scrambled_indicators(self.TRUE, seed=41, taken=first)
        members = [c.members for c in self.TRUE + first + second]
        assert len(set(members)) == len(members) == 6

    @pytest.mark.parametrize("groups", [((0,), (1,), (2,)), ((0, 1, 2),)],
                             ids=["singletons", "one indicator"])
    def test_partition_without_distinct_draw_refused_before_drawing(self, monkeypatch, groups):
        generators = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: generators.append(args))
        with pytest.raises(ValueError, match="^scrambled: "):
            scrambled_indicators([classical.IndicatorVector(g, 4) for g in groups], seed=4)
        assert generators == []


class TestTiedRanks:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5 + 4e-16, 0.5 - 2e-12, 0.5 + 1e-12,
                                     0.75, 1.0]), max_size=16))
    def test_order_matches_sorted_reference(self, sims):
        # the array order against the rule written as Python sorts
        order = sorted(range(len(sims)), key=lambda i: -sims[i])
        gaps = [sims[a] - sims[b] > readout.TIE_TOL for a, b in zip(order, order[1:])]
        order = [i for _, i in sorted(zip(np.cumsum([0, *gaps]), order))]
        ranked = readout._ranked([str(i) for i in range(len(sims))], sims, "direct")
        assert [r.y_id for r in ranked] == [str(i) for i in order]
        assert [r.similarity for r in ranked] == [sims[i] for i in order]

    @pytest.mark.parametrize("first, second", [(0.5, 0.5 + 4e-16), (0.5 + 4e-16, 0.5)])
    def test_near_ties_keep_input_order(self, first, second):
        sims = [first, 0.9, second, 0.5 - 3e-12, 0.5 - 2.5e-12, 0.5 + 1e-9]
        ranked = readout._ranked(["a", "b", "c", "d", "e", "f"], sims, "direct")
        # a and c tie whichever is larger, d and e tie with each other only, f ranks by value
        assert [r.y_id for r in ranked] == ["b", "f", "a", "c", "d", "e"]
        assert [r.rank for r in ranked] == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_laplacian_candidates_rank_in_input_order(self, reverse):
        # on a connected graph every 4-of-8 indicator has direct similarity 1/2, and each
        # true or scrambled pair has the same amplified similarity up to rounding
        pts, labels = gaussian_blobs((4, 4), ((1.0, 0.0), (0.0, 1.0)), 0.08, seed=3)
        H = graph.laplacian(graph.build_full_graph(pts, 1.0, squared_norm=True))
        true_inds = classical.indicators_from_labels(labels, 2)
        cands = true_inds + scrambled_indicators(true_inds, seed=4)
        if reverse:
            cands = cands[::-1]
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        ranked, direct, _ = readout.cluster_quantum(H, cands, cfg, max_iter=40)
        names = [c.name for c in cands]
        assert [r.y_id for r in direct] == names
        true_names = {ind.name for ind in true_inds}
        assert [r.y_id for r in ranked] == ([n for n in names if n in true_names]
                                            + [n for n in names if n not in true_names])


class TestClusterQuantum:
    @pytest.mark.parametrize("partial", [False, True])
    def test_two_blobs(self, partial):
        pts, labels = gaussian_blobs((4, 4), ((1.0, 0.0), (0.0, 1.0)), 0.08, seed=3)
        H = encoding.points_gram(pts)
        true_inds = classical.indicators_from_labels(labels, 2)
        cands = true_inds + scrambled_indicators(true_inds, seed=4)
        if partial:  # points 6 and 7 lie in no candidate
            cands = [classical.IndicatorVector(g, 8) for g in ((0, 1, 2, 3), (0, 1, 4), (2, 5))]
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        ranked, direct, labels_q = readout.cluster_quantum(H, cands, cfg, max_iter=40)

        assert ranked == readout.rank_indicators(H, cands, cfg, max_iter=40)
        oracle = [readout.direct_similarity(H, c.vector()) for c in cands]
        expected = sorted(zip(oracle, (c.name for c in cands)), key=lambda pair: -pair[0])
        assert [(r.similarity, r.y_id) for r in direct] == expected
        assert [r.rank for r in direct] == list(range(1, len(cands) + 1))
        assert {r.method for r in direct} == {"direct"}

        members = {c.name: set(c.members) for c in cands}
        for p in range(8):
            containing = [i for i, r in enumerate(ranked) if p in members[r.y_id]]
            assert labels_q[p] == (containing[0] if containing else -1)
        assert (-1 in labels_q) == partial


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 5),  # N = 4 .. 32
        rank_frac=st.floats(0.0, 1.0),
        complex_h=st.booleans(),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_each_candidate_reads_as_alone(self, n, rank_frac, complex_h, data, seed):
        # a candidate's householder and direct similarity do not depend on the
        # other candidates of the call, to the last bit
        N = 2**n
        groups = data.draw(st.lists(st.frozensets(st.integers(0, N - 1), min_size=1, max_size=12),
                                    min_size=1, max_size=12, unique=True))  # distinct candidates
        rank = max(1, round(rank_frac * N))
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(N, N)) + (1j * rng.normal(size=(N, N)) if complex_h else 0.0)
        Q, _ = np.linalg.qr(A)
        H = (Q[:, :rank] * rng.uniform(0.3, 1.0, size=rank)) @ Q[:, :rank].conj().T
        H = (H + H.conj().T) / 2
        cands = [classical.IndicatorVector(tuple(g), N) for g in groups]
        cfg = qpea.PeaConfig(m=6, kappa=1.0, mode="biased", standard_grover=True)
        ranked, direct, _ = readout.cluster_quantum(H, cands, cfg, max_iter=20)
        together = {(r.method, r.y_id): r.similarity for r in ranked + direct}
        for c in cands:
            alone, alone_direct, _ = readout.cluster_quantum(H, [c], cfg, max_iter=20)
            assert alone[0].similarity == together["householder", c.name]
            assert alone_direct[0].similarity == together["direct", c.name]


def test_similarity_report_validates_range():
    with pytest.raises(ValueError, match="outside"):
        readout.SimilarityReport("x", 1.5, "direct")
