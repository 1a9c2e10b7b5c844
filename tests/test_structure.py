import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from mmrca.panel import ModalityPanel
from mmrca.structure import (
    LearnerConfig,
    acyclicity,
    adjacency_from_lags,
    expm,
    fit,
    lag_design,
    objective_gradients,
)


def toy_setup(n=3, t_len=8, seed=0, **cfg_overrides):
    """A config, the (n, T) series, their lag design (z, y) and lag weights away from 0."""
    rng = np.random.default_rng(seed)
    cfg = LearnerConfig(**{"p": 2, **cfg_overrides})
    series = rng.standard_normal((n, t_len))
    shape = (cfg.p, n, n)
    w = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.1, 0.6, shape)
    return cfg, series, lag_design(series, cfg.p), {"w": w}


def random_panel(seed=4, n_entities=4, t_len=30):
    rng = np.random.default_rng(seed)
    names = [f"e{i}" for i in range(n_entities)]
    return ModalityPanel(rng.standard_normal((n_entities + 1, t_len)), names)


class TestLagDesign:
    def test_hand_worked_rows_newest_lag_first(self):
        z, y = lag_design(np.array([[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]]), p=2)
        # Z[t, (k - 1) n + i]: series i at lag k before step p + t
        assert np.array_equal(z, [[2.0, 20.0, 1.0, 10.0], [3.0, 30.0, 2.0, 20.0]])
        assert np.array_equal(y, [[3.0, 30.0], [4.0, 40.0]])

    def test_boundary_single_step(self):
        z, y = lag_design(np.array([[1.0, 2.0, 3.0, 4.0]]), p=3)
        assert np.array_equal(z, [[3.0, 2.0, 1.0]])
        assert np.array_equal(y, [[4.0]])

    def test_constant_series(self):
        z, y = lag_design(np.full((2, 7), 4.2), p=3)
        assert np.all(z == 4.2) and np.all(y == 4.2)

    def test_m_equals_t_minus_p_and_keeps_the_dtype(self):
        z, y = lag_design(np.zeros((3, 11), np.float32), p=4)
        assert z.shape == (7, 12) and y.shape == (7, 3)
        assert z.dtype == y.dtype == np.float32

    def test_both_are_c_ordered(self):
        # a product's summation order in BLAS can follow the layout of its operands
        z, y = lag_design(np.random.default_rng(0).standard_normal((4, 9)), p=3)
        assert z.flags.c_contiguous and y.flags.c_contiguous


class TestAdjacency:
    def test_sum_of_absolute_lag_weights_off_the_diagonal(self):
        _, _, _, params = toy_setup(n=4)
        w = params["w"]
        a = adjacency_from_lags(w)
        assert a.shape == (4, 4)
        for i in range(4):
            for j in range(4):
                want = 0.0 if i == j else sum(abs(w[k, i, j]) for k in range(w.shape[0]))
                assert a[i, j] == pytest.approx(want, abs=1e-15)
        assert np.all(a >= 0.0)

    def test_ignores_the_sign_of_a_weight_and_keeps_its_dtype(self):
        _, _, _, params = toy_setup(n=4)
        w = params["w"]
        assert np.array_equal(adjacency_from_lags(-w), adjacency_from_lags(w))
        a32 = adjacency_from_lags(w.astype(np.float32))
        assert a32.dtype == np.float32
        assert np.allclose(a32, adjacency_from_lags(w), rtol=1e-6)


class TestObjective:
    def test_squared_error_matches_the_lag_equations(self):
        # W_k[i, j] weighs series i at lag k in the equation of series j
        cfg, series, (z, y), params = toy_setup(n=3, t_len=7, lambda5=0.0)
        w, p = params["w"], cfg.p
        m = series.shape[-1] - p
        expected = 0.0
        for t in range(p, series.shape[-1]):
            for j in range(3):
                prediction = sum(
                    w[k - 1, i, j] * series[i, t - k] for k in range(1, p + 1) for i in range(3)
                )
                expected += (series[j, t] - prediction) ** 2 / m
        _, breakdown, _ = objective_gradients(params, z, y, cfg, multiplier=0.0)
        assert breakdown["var"] == pytest.approx(cfg.lambda1 * expected, rel=1e-12)

    def test_true_weights_fit_a_noiseless_series_exactly(self):
        rng = np.random.default_rng(1)
        w = np.zeros((2, 3, 3))
        w[0] = np.diag([0.5, 0.5, 0.5])
        w[0, 0, 1] = 0.8
        w[1, 1, 2] = -0.4
        series = np.zeros((3, 40))
        series[:, :2] = rng.standard_normal((3, 2))
        for t in range(2, 40):
            series[:, t] = series[:, t - 1] @ w[0] + series[:, t - 2] @ w[1]
        cfg = LearnerConfig(p=2)
        _, breakdown, _ = objective_gradients({"w": w}, *lag_design(series, 2), cfg, 0.0)
        assert breakdown["var"] == pytest.approx(0.0, abs=1e-20)

    def test_zero_weights_cost_the_mean_square_of_the_targets(self):
        cfg, _, (z, y), params = toy_setup()
        total, breakdown, _ = objective_gradients({"w": np.zeros_like(params["w"])}, z, y, cfg, 5.0)
        assert breakdown["var"] == pytest.approx(cfg.lambda1 * (y**2).sum() / len(y), rel=1e-12)
        assert breakdown["sparsity"] == breakdown["acyclicity"] == breakdown["h"] == 0.0
        assert total == breakdown["var"]

    def test_sparsity_hand_value_leaves_the_self_lags_out(self):
        cfg, _, (z, y), _ = toy_setup(n=3)
        w = np.zeros((cfg.p, 3, 3))
        w[0] = 0.5  # 6 off-diagonal entries count, 3 self-lags do not
        w[1, 0, 0] = -7.0
        _, breakdown, _ = objective_gradients({"w": w}, z, y, cfg)
        assert breakdown["sparsity"] == pytest.approx(cfg.lambda5 * 3.0, abs=1e-12)

    def test_doubling_lambda1_doubles_the_squared_error(self):
        cfg, _, (z, y), params = toy_setup()
        _, base, _ = objective_gradients(params, z, y, cfg)
        _, doubled, _ = objective_gradients(params, z, y, LearnerConfig(p=2, lambda1=2 * cfg.lambda1))
        assert doubled["var"] == pytest.approx(2.0 * base["var"], rel=1e-12)

    def test_breakdown_total_is_sum_of_terms(self):
        cfg, _, (z, y), params = toy_setup()
        total, b, _ = objective_gradients(params, z, y, cfg, multiplier=3.0)
        assert b["acyclicity"] == pytest.approx(3.0 * b["h"])
        assert b["h"] > 0.0 and b["multiplier"] == 3.0
        assert total == b["var"] + b["sparsity"] + b["acyclicity"]


class TestObjectiveGradients:
    @pytest.mark.parametrize("n,p,t_len", [(3, 2, 9), (5, 1, 8), (3, 3, 10)])
    def test_matches_central_differences_with_every_term_on(self, n, p, t_len):
        cfg, _, (z, y), params = toy_setup(n=n, t_len=t_len, p=p, lambda5=0.7)

        def objective():
            return objective_gradients(params, z, y, cfg, 1.7)

        total, breakdown, grads = objective()
        assert min(breakdown[term] for term in ("var", "sparsity", "acyclicity")) > 0.1
        w = params["w"]
        assert np.abs(w).min() >= 0.1  # |W| is differentiable everywhere in reach of eps
        eps = 1e-6
        numeric = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + eps
            plus = objective()[0]
            w[idx] = orig - eps
            minus = objective()[0]
            w[idx] = orig
            numeric[idx] = (plus - minus) / (2 * eps)
        assert grads.keys() == {"w"}
        rel = np.linalg.norm(grads["w"] - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-6, f"rel err {rel}"

    def test_self_lags_get_only_the_squared_error_gradient(self):
        cfg, _, (z, y), params = toy_setup(lambda1=0.0, lambda5=0.7)
        _, _, grads = objective_gradients(params, z, y, cfg, 1.7)
        diagonal = np.diagonal(grads["w"], axis1=-2, axis2=-1)
        assert np.all(diagonal == 0.0)
        assert np.all(grads["w"][:, ~np.eye(3, dtype=bool)] != 0.0)

    def test_zero_weights_are_stationary_for_both_penalties(self):
        # so fit's first step from W = 0 follows the squared error alone
        cfg, _, (z, y), params = toy_setup(lambda1=0.0, lambda5=0.7)
        _, _, grads = objective_gradients({"w": np.zeros_like(params["w"])}, z, y, cfg, 1.7)
        assert np.all(grads["w"] == 0.0)


class TestPrecision:
    def test_float32_agrees_with_float64_and_stays_float32(self):
        cfg, series, (z, y), params = toy_setup(lambda5=0.7)
        total, _, grads = objective_gradients(params, z, y, cfg, 1.7)
        z32, y32 = lag_design(series.astype(np.float32), cfg.p)
        total32, _, grads32 = objective_gradients({"w": params["w"].astype(np.float32)}, z32, y32, cfg, 1.7)
        assert grads32["w"].dtype == np.float32
        # float32 keeps about 7 digits
        assert abs(total32 - total) <= 1e-5 * abs(total)
        rel = np.linalg.norm(grads32["w"] - grads["w"]) / np.linalg.norm(grads["w"])
        assert rel < 1e-5, f"rel err {rel}"


def is_acyclic(a) -> bool:
    """A graph of n nodes has no cycle iff no walk of n edges exists: A^n is zero."""
    a = np.asarray(a) > 0
    return not np.linalg.matrix_power(a.astype(float), len(a)).any()


class TestAcyclicity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_matrix(self, dtype):
        h, e = acyclicity(np.zeros((4, 4), dtype))
        assert type(h) is float and h == 0.0
        assert e.dtype == dtype and np.array_equal(e, np.eye(4))

    def test_nilpotent_dag(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert acyclicity(a)[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_cycle_closed_form(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        series = _truncated_series_oracle(a * a, terms=30)
        assert acyclicity(a)[0] == pytest.approx(2.0 * np.cosh(1.0) - 2.0, abs=1e-10)
        assert acyclicity(a)[0] == pytest.approx(series, abs=1e-10)
        assert acyclicity(a)[0] == pytest.approx(1.0862, abs=1e-4)

    def test_random_dags_are_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            order = rng.permutation(n)
            a = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        a[order[i], order[j]] = rng.uniform(0.1, 1.0)
            assert is_acyclic(a)
            assert acyclicity(a)[0] == pytest.approx(0.0, abs=1e-10)

    def test_cyclic_graphs_are_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            a = np.zeros((n, n))
            cycle = rng.permutation(n)[: int(rng.integers(2, n + 1))]
            for u, v in zip(cycle, np.roll(cycle, -1)):
                a[u, v] = rng.uniform(0.2, 1.0)
            assert not is_acyclic(a)
            assert acyclicity(a)[0] > 0.0


# expm against scipy.linalg.expm, the implementation it replaced: relative to
# the largest entry, 1e-12 is about 5000 float64 ulps, 1e-5 about 80 float32 ulps
EXPM_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestExpm:
    def assert_matches_scipy(self, a):
        got, want = expm(a), scipy_expm(a)
        assert got.dtype == a.dtype and got.shape == a.shape
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - want) <= EXPM_RTOL[a.dtype.type] * scale)
        return got

    @pytest.mark.parametrize("scale", [1e-3, 4.0])  # 1-norm near 4e-3: no squaring; 13: two
    def test_a_small_and_a_medium_norm(self, dtype, scale):
        rng = np.random.default_rng(0)
        self.assert_matches_scipy((scale * rng.uniform(0.0, 1.0, (6, 6))).astype(dtype))

    def test_zero_matrix_gives_the_identity(self, dtype):
        assert np.array_equal(expm(np.zeros((5, 5), dtype)), np.eye(5))

    def test_strictly_upper_triangular_dag(self, dtype):
        rng = np.random.default_rng(1)
        a = np.triu(rng.uniform(0.5, 3.0, (8, 8)), 1).astype(dtype)
        got = self.assert_matches_scipy(a)
        assert np.array_equal(np.tril(got, -1), np.zeros((8, 8)))
        assert np.array_equal(np.diag(got), np.ones(8))  # so h is exactly 0 on a DAG

    def test_a_large_norm_is_squared_down(self, dtype):
        rng = np.random.default_rng(2)
        a = (10.0 * rng.standard_normal((5, 5))).astype(dtype)  # 1-norm near 50: 4 squarings
        self.assert_matches_scipy(a)


def _truncated_series_oracle(b: np.ndarray, terms: int) -> float:
    total = np.eye(b.shape[0])
    power = np.eye(b.shape[0])
    factorial = 1.0
    for k in range(1, terms + 1):
        power = power @ b
        factorial *= k
        total = total + power / factorial
    return float(np.trace(total) - b.shape[0])


class TestFit:
    def test_two_fits_in_one_process_are_bitwise_equal(self):
        panel = random_panel()
        cfg = LearnerConfig(p=2, epochs=6, acyclicity_every=2)
        first, second = (fit(panel, cfg) for _ in range(2))
        assert first.A.tobytes() == second.A.tobytes()
        assert first.w.tobytes() == second.w.tobytes()
        assert first.loss_history == second.loss_history
        assert first.h == second.h

    def test_starts_from_zero_weights_and_trains_in_float32(self):
        panel = random_panel()
        result = fit(panel, LearnerConfig(p=2, epochs=3))
        history = result.loss_history
        assert history["sparsity"][0] == history["acyclicity"][0] == 0.0
        assert history["multiplier"] == [1.0, 1.0, 1.0]
        assert result.w.shape == (2, 5, 5)
        assert result.w.dtype == result.A.dtype == np.float32
        assert np.array_equal(result.A, adjacency_from_lags(result.w))
        assert np.all(np.diag(result.A) == 0.0) and np.all(result.A >= 0.0)
        # h is the penalty of the final weights, one step past the last breakdown
        assert result.h == float(acyclicity(result.A)[0])

    def test_a_constant_row_fits_to_finite_weights_and_no_edge(self):
        rng = np.random.default_rng(0)
        values = 3.0 + 2.0 * rng.standard_normal((3, 12))
        values[1] = 5.0  # a constant row keeps std 1 so it z-scores to 0, not to 0 / 0
        result = fit(ModalityPanel(values, ["a", "b"]), LearnerConfig(p=2, epochs=5))
        assert np.all(np.isfinite(result.w))
        assert not result.A[1].any() and not result.A[:, 1].any()
        assert result.A[0, 2] > 0.0 and result.A[2, 0] > 0.0

    def test_the_multiplier_doubles_every_acyclicity_every_epochs(self):
        history = fit(random_panel(), LearnerConfig(p=2, epochs=7, acyclicity_every=2)).loss_history
        assert history["multiplier"] == [1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0]
        for multiplier, h, term in zip(history["multiplier"], history["h"], history["acyclicity"]):
            assert term == multiplier * h

    def test_training_lowers_the_objective(self):
        history = fit(random_panel(), LearnerConfig(p=2, epochs=60)).loss_history
        assert history["total"][-1] < history["total"][0]
        assert history["var"][-1] < history["var"][0]

    def test_both_edges_of_a_noiseless_chain_outrank_every_other_entry(self):
        # e0 -> e1 -> e2 -> kpi with self-decay 0.5; the lag equations hold
        # exactly, and each node's own input is all that its causes leave unexplained
        rng = np.random.default_rng(0)
        m = 0.5 * np.eye(4)
        m[1, 0] = m[2, 1] = m[3, 2] = 0.8
        inputs = rng.standard_normal((4, 200))
        x = np.zeros((4, 200))
        for t in range(1, 200):
            x[:, t] = m @ x[:, t - 1] + inputs[:, t]
        a = fit(ModalityPanel(x, ["e0", "e1", "e2"]), LearnerConfig()).A
        true_edges = {(0, 1), (1, 2), (2, 3)}
        others = [a[i, j] for i in range(4) for j in range(4) if i != j and (i, j) not in true_edges]
        assert min(a[edge] for edge in true_edges) > max(others)

    @pytest.mark.parametrize("n_entities", [1, 3, 6])
    def test_the_adjacency_is_square_non_negative_with_a_zero_diagonal(self, n_entities):
        # fuse and transition_matrix do not check the adjacency they are given
        a = fit(random_panel(n_entities=n_entities, t_len=30), LearnerConfig(p=2, epochs=20)).A
        assert a.shape == (n_entities + 1, n_entities + 1)
        assert a.any() and np.all(np.isfinite(a)) and np.all(a >= 0.0)
        assert not np.diag(a).any()

    def test_a_diverging_step_raises_naming_the_epoch(self):
        # one step moves each weight by about lr, which float32 holds, but the
        # sum of two such weights over the lags overflows
        with pytest.raises(FloatingPointError, match="^the learned adjacency became non-finite "
                           "at epoch 0$"):
            fit(random_panel(), LearnerConfig(p=2, epochs=5, lr=3e38))

    def test_an_overflowing_objective_raises_naming_the_epoch_without_a_warning(self):
        # weights of about 1e30 are finite, but their squares in expm and the
        # squared error are not; a RuntimeWarning fails this test
        with pytest.raises(FloatingPointError, match="^objective became non-finite at epoch 1$"):
            fit(random_panel(n_entities=3, t_len=40), LearnerConfig(p=1, epochs=5, lr=1e30))
