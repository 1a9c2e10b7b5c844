import numpy as np
import pytest

from mmrca.rca import RwrResult, rank_root_causes, rwr, transition_matrix


def solve_fixed_point(p, p0, c):
    """Dense linear-solve oracle: (I - (1-c) P^T) x = c p0."""
    n = p.shape[0]
    return np.linalg.solve(np.eye(n) - (1.0 - c) * p.T, c * p0)


def transition_matrix_loop(a, beta):
    """Row-by-row reference for transition_matrix."""
    n = a.shape[0]
    incoming = a.sum(axis=0)
    p = np.zeros((n, n))
    for i in range(n):
        if incoming[i] > 0:
            p[i, :] = (1.0 - beta) * a[:, i] / incoming[i]
            p[i, i] += beta
        else:
            p[i, i] = 1.0
    return p


class TestTransitionMatrix:
    def test_two_node_chain(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])  # edge 0 -> 1
        p = transition_matrix(a, beta=0.0)
        # node 1 walks back to its cause; node 0 has no cause -> self-loop
        assert np.allclose(p, [[1.0, 0.0], [1.0, 0.0]])

    def test_beta_one_gives_identity(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(5, 5))
        np.fill_diagonal(a, 0.0)
        assert np.allclose(transition_matrix(a, beta=1.0), np.eye(5))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(size=(6, 6)) * (rng.random((6, 6)) < 0.5)
            p = transition_matrix(a, beta=0.1)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.37, 1.0])
    def test_bitwise_equal_to_the_row_loop(self, beta):
        rng = np.random.default_rng(2)
        for n in range(1, 45):
            a = rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.4)
            a[:, rng.random(n) < 0.3] = 0.0  # nodes with no incoming weight
            assert np.array_equal(transition_matrix(a, beta), transition_matrix_loop(a, beta)), n


class TestRwr:
    def test_pure_restart(self):
        p = transition_matrix(np.ones((3, 3)) - np.eye(3), beta=0.2)
        p0 = np.array([0.2, 0.3, 0.5])
        result = rwr(p, p0, c=1.0)
        assert np.allclose(result.scores, p0)
        assert result.converged

    def test_matches_linear_solve_on_chain(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = transition_matrix(a, beta=0.0)
        p0 = np.array([0.0, 1.0])
        result = rwr(p, p0, c=0.15, tol=1e-12)
        expected = solve_fixed_point(p, p0, 0.15)
        assert np.allclose(result.scores, expected, atol=1e-10)

    def test_matches_linear_solve_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(5, 11))
            a = rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.4)
            np.fill_diagonal(a, 0.0)
            p = transition_matrix(a, beta=0.1)
            p0 = np.zeros(n)
            p0[-1] = 1.0
            result = rwr(p, p0, c=0.15, tol=1e-12)
            expected = solve_fixed_point(p, p0, 0.15)
            assert np.allclose(result.scores, expected, atol=1e-8)

    def test_mass_conserved_every_iteration(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=(6, 6))
        np.fill_diagonal(a, 0.0)
        p = transition_matrix(a, beta=0.1)
        p0 = np.full(6, 1 / 6)
        vec = p0.copy()
        for _ in range(200):
            vec = 0.85 * (p.T @ vec) + 0.15 * p0
            assert abs(vec.sum() - 1.0) < 1e-12

    def test_fixed_point_independent_of_start(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(5, 5))
        np.fill_diagonal(a, 0.0)
        p = transition_matrix(a, beta=0.1)
        p0 = np.zeros(5)
        p0[0] = 1.0
        from_restart = rwr(p, p0, c=0.2, tol=1e-12).scores
        # iterate manually from a uniform start with the same restart anchor
        vec = np.full(5, 0.2)
        for _ in range(5000):
            vec = 0.8 * (p.T @ vec) + 0.2 * p0
        assert np.allclose(from_restart, vec, atol=1e-10)

    def test_contraction_toward_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.uniform(size=(5, 5))
            np.fill_diagonal(a, 0.0)
            p = transition_matrix(a, beta=0.1)
            p0 = np.zeros(5)
            p0[-1] = 1.0
            c = 0.15
            star = solve_fixed_point(p, p0, c)
            vec = np.full(5, 0.2)
            for _ in range(50):
                nxt = (1 - c) * (p.T @ vec) + c * p0
                assert np.abs(nxt - star).sum() <= (1 - c) * np.abs(vec - star).sum() + 1e-12
                vec = nxt

    def test_reverse_tracing_on_chain(self):
        # root -> a -> b -> kpi with uniform weights: restarting at the KPI,
        # the root (an ancestor) must outscore b's non-ancestors
        names = ["root", "a", "b", "other", "kpi"]
        a = np.zeros((5, 5))
        a[0, 1] = a[1, 2] = a[2, 4] = 1.0  # chain into the KPI
        p = transition_matrix(a, beta=0.1)
        p0 = np.zeros(5)
        p0[-1] = 1.0
        scores = rwr(p, p0, c=0.15, tol=1e-12).scores
        expected = solve_fixed_point(p, p0, 0.15)
        assert np.allclose(scores, expected, atol=1e-10)
        assert scores[0] > scores[3]


class TestRanking:
    def test_drops_kpi_and_sorts(self):
        ranked = rank_root_causes(np.array([0.5, 0.3, 0.2]), ["e0", "e1", "kpi"], k=2)
        assert ranked.ranking == [("e0", 0.5), ("e1", 0.3)]

    def test_tie_break_ascending_index(self):
        ranked = rank_root_causes(np.array([0.25, 0.25, 0.25, 0.25]), ["a", "b", "c", "kpi"], k=3)
        assert [name for name, _ in ranked.ranking] == ["a", "b", "c"]

    def test_k_larger_than_entity_count(self):
        ranked = rank_root_causes(np.array([0.6, 0.4]), ["a", "kpi"], k=10)
        assert len(ranked.ranking) == 1
