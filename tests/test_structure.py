import numpy as np
import pytest

from mmrca.panel import ModalityPanel
from mmrca.simulate import topological_order
from mmrca.structure import (
    LaggedBatch,
    LearnerConfig,
    Workspace,
    acyclicity,
    adjacency_from_free,
    build_lagged,
    encode,
    fit,
    init_params,
    load_structure,
    loss_edge,
    loss_edge_backward,
    loss_node,
    loss_orth,
    loss_var,
    objective_gradients,
    save_structure,
)


def subparams(params, modality):
    prefix = modality + "."
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def toy_setup(n=3, t_len=6, seed=0, **cfg_overrides):
    rng = np.random.default_rng(seed)
    cfg = LearnerConfig(p=2, d1=4, d2=3, seed=seed + 1, **cfg_overrides)
    batch_m = build_lagged(rng.standard_normal((n, t_len)), cfg.p)
    batch_l = build_lagged(rng.standard_normal((n, t_len)), cfg.p)
    params = init_params(n, cfg)
    return cfg, batch_m, batch_l, params


def as_float32(params, *batches):
    """The parameters and batches cast to float32, as fit casts them."""
    return (
        {key: value.astype(np.float32) for key, value in params.items()},
        *(LaggedBatch(b.history.astype(np.float32), b.target.astype(np.float32)) for b in batches),
    )


class TestBuildLagged:
    def test_hand_worked_windows(self):
        batch = build_lagged(np.array([[1.0, 2.0, 3.0, 4.0]]), p=2)
        assert np.array_equal(batch.history[0], [[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(batch.target[0], [3.0, 4.0])

    def test_boundary_single_step(self):
        batch = build_lagged(np.array([[1.0, 2.0, 3.0, 4.0]]), p=3)
        assert batch.history.shape == (1, 1, 3)
        assert batch.target.shape == (1, 1)

    def test_constant_series(self):
        batch = build_lagged(np.full((2, 7), 4.2), p=3)
        assert np.all(batch.history == 4.2)
        assert np.all(batch.target == 4.2)

    def test_m_equals_t_minus_p(self):
        batch = build_lagged(np.zeros((3, 11)), p=4)
        assert batch.target.shape == (3, 7)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="T=3.*p=3"):
            build_lagged(np.zeros((2, 3)), p=3)

    def test_accepts_panel(self):
        panel = ModalityPanel(np.arange(8.0).reshape(2, 4), ["e0"])
        batch = build_lagged(panel, p=1)
        assert batch.target.shape == (2, 3)


class TestAdjacencyParam:
    def test_zero_diagonal_and_open_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = adjacency_from_free(5.0 * rng.standard_normal((6, 6)))
            assert np.all(np.diag(a) == 0.0)
            off = a[~np.eye(6, dtype=bool)]
            assert np.all((off > 0.0) & (off < 1.0))


class TestEncode:
    def test_zero_adjacency_isolates_self_features(self):
        cfg, batch, _, params = toy_setup()
        mod = subparams(params, "metric")
        (r_c, r_s, h), _ = encode(batch, np.zeros((3, 3)), mod)

        # oracle: a self-only forward pass (aggregated part identically zero)
        def self_only(x, w1, b1, w2, b2):
            z1 = np.concatenate([x, np.zeros_like(x)], axis=-1)
            h1 = np.tanh(z1 @ w1 + b1)
            z2 = np.concatenate([h1, np.zeros_like(h1)], axis=-1)
            return np.tanh(z2 @ w2 + b2)

        expected = self_only(batch.history, mod["enc_c.w1"], mod["enc_c.b1"],
                             mod["enc_c.w2"], mod["enc_c.b2"])
        assert np.allclose(r_c, expected)

    def test_permutation_equivariance(self):
        cfg, batch, _, params = toy_setup(n=4, t_len=7)
        mod = subparams(params, "metric")
        rng = np.random.default_rng(3)
        adjacency = rng.uniform(size=(4, 4))
        np.fill_diagonal(adjacency, 0.0)
        (r_c, r_s, h), _ = encode(batch, adjacency, mod)

        perm = np.array([2, 0, 3, 1])
        from mmrca.structure import LaggedBatch

        permuted_batch = LaggedBatch(history=batch.history[perm], target=batch.target[perm])
        permuted_adj = adjacency[np.ix_(perm, perm)]
        (r_c_p, r_s_p, h_p), _ = encode(permuted_batch, permuted_adj, mod)
        assert np.allclose(r_c_p, r_c[perm])
        assert np.allclose(r_s_p, r_s[perm])
        assert np.allclose(h_p, h[perm])

    def test_output_shapes(self):
        cfg, batch, _, params = toy_setup()
        (r_c, r_s, h), _ = encode(batch, np.zeros((3, 3)), subparams(params, "metric"))
        m = batch.target.shape[1]
        assert r_c.shape == (3, m, cfg.d1)
        assert r_s.shape == (3, m, cfg.d1)
        assert h.shape == (3, cfg.d2)


class TestLossVar:
    def decoder(self, seed=0, d1=4):
        rng = np.random.default_rng(seed)
        return {
            "w1": rng.standard_normal((2 * d1, d1)),
            "b1": np.zeros(d1),
            "w2": rng.standard_normal((2 * d1, 1)),
            "b2": np.zeros(1),
        }

    def test_zero_when_output_matches(self):
        # force the decoder to output zero and pass a zero target
        dec = self.decoder()
        dec["w1"][:] = 0.0
        dec["w2"][:] = 0.0
        r = np.random.default_rng(1).standard_normal((2, 5, 4))
        assert loss_var(np.zeros((2, 5)), r, np.zeros_like(r), np.zeros((2, 2)), dec)[0] == 0.0

    def test_zero_output_gives_squared_norm(self):
        dec = self.decoder()
        dec["w1"][:] = 0.0
        dec["w2"][:] = 0.0
        target = np.random.default_rng(2).standard_normal((2, 5))
        r = np.random.default_rng(3).standard_normal((2, 5, 4))
        value = loss_var(target, r, np.zeros_like(r), np.zeros((2, 2)), dec)[0]
        assert value == pytest.approx(float((target**2).sum()))

    def test_matches_elementwise_oracle(self):
        dec = self.decoder(seed=4)
        rng = np.random.default_rng(5)
        target = rng.standard_normal((2, 2))
        r_c = rng.standard_normal((2, 2, 4))
        r_s = rng.standard_normal((2, 2, 4))
        adjacency = rng.uniform(size=(2, 2))
        np.fill_diagonal(adjacency, 0.0)
        value = loss_var(target, r_c, r_s, adjacency, dec)[0]

        # scalar hand-expansion of the decoder and Frobenius sum
        r = r_c + r_s
        total = 0.0
        for t in range(2):
            x = r[:, t, :]
            agg = adjacency.T @ x
            h1 = np.tanh(np.concatenate([x, agg], axis=1) @ dec["w1"] + dec["b1"])
            agg2 = adjacency.T @ h1
            out = np.concatenate([h1, agg2], axis=1) @ dec["w2"] + dec["b2"]
            for i in range(2):
                total += (target[i, t] - out[i, 0]) ** 2
        assert value == pytest.approx(total)


class TestLossNode:
    def test_single_entity_is_zero(self):
        h = np.array([[1.0, 2.0]])
        assert loss_node(h, h, temperature=0.5)[0] == pytest.approx(0.0)

    def test_orthonormal_rows_closed_form(self):
        h = np.eye(2)
        expected = -np.log(np.e**2 / (np.e**2 + 1.0))
        assert loss_node(h, h, temperature=0.5)[0] == pytest.approx(expected, abs=1e-12)
        assert loss_node(h, h, temperature=0.5)[0] == pytest.approx(0.1269, abs=1e-4)

    def test_scale_invariance_of_rows(self):
        rng = np.random.default_rng(0)
        h_m = rng.standard_normal((4, 3))
        h_l = rng.standard_normal((4, 3))
        scales = np.array([2.0, 5.0, 0.3, 11.0])[:, None]
        a = loss_node(h_m, h_l, temperature=0.5)[0]
        b = loss_node(h_m * scales, h_l * scales[::-1], temperature=0.5)[0]
        assert a == pytest.approx(b, abs=1e-10)

    def test_high_temperature_limit_is_log_n(self):
        rng = np.random.default_rng(1)
        h_m = rng.standard_normal((4, 6))
        h_l = rng.standard_normal((4, 6))
        assert loss_node(h_m, h_l, temperature=1e6)[0] == pytest.approx(np.log(4), abs=1e-3)


class TestLossOrth:
    def test_orthogonal_blocks_are_zero(self):
        r_c = np.zeros((1, 2, 2))
        r_s = np.zeros((1, 2, 2))
        r_c[0, :, 0] = [1.0, 2.0]
        r_s[0, :, 1] = [3.0, -1.0]
        # columns live in disjoint coordinates but cross products mix over m,
        # so build a case where R_s^T R_c = 0 exactly
        r_s[0, :, 1] = [2.0, -1.0]  # orthogonal to [1, 2] over the m axis
        assert loss_orth(r_c, r_s)[0] == pytest.approx(0.0)

    def test_scalar_hand_case(self):
        r = np.ones((1, 1, 1))
        assert loss_orth(r, r)[0] == pytest.approx(1.0)

    def test_zero_private_representation(self):
        rng = np.random.default_rng(0)
        r_c = rng.standard_normal((3, 4, 2))
        assert loss_orth(r_c, np.zeros_like(r_c))[0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_orth(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestLossEdge:
    def head(self, d2, value=0.0):
        return {"w": np.zeros((2 * d2, 1)), "b": np.array([value])}

    def test_perfect_prediction_is_zero(self):
        # G outputs 0.5 everywhere; set A to 0.5 off-diagonal
        adjacency = np.full((3, 3), 0.5)
        np.fill_diagonal(adjacency, 0.0)
        h = np.random.default_rng(0).standard_normal((3, 2))
        assert loss_edge(h, adjacency, self.head(2))[0] == pytest.approx(0.0)

    def test_hand_worked_two_nodes(self):
        adjacency = np.array([[0.0, 0.0], [1.0, 0.0]])
        h = np.random.default_rng(1).standard_normal((2, 2))
        value = loss_edge(h, adjacency, self.head(2))[0]  # G == 0.5
        assert value == pytest.approx((0.5 - 0.0) ** 2 + (0.5 - 1.0) ** 2)

    @pytest.mark.parametrize("n,seed", [(2, 0), (6, 1), (41, 2)])
    def test_factorised_head_matches_the_pair_tensor(self, n, seed):
        rng = np.random.default_rng(seed)
        d2 = 5
        h = rng.standard_normal((n, d2))
        adjacency = rng.uniform(size=(n, n))
        np.fill_diagonal(adjacency, 0.0)
        head = {"w": rng.standard_normal((2 * d2, 1)), "b": np.array([0.3])}
        value, cache = loss_edge(h, adjacency, head)
        d_h, d_a, grads = loss_edge_backward(20.0, cache)

        # reference: the head applied to the explicit (n, n, 2 * d2) tensor of pairs [h_i, h_j]
        from scipy.special import expit

        e = np.concatenate(
            [np.repeat(h[:, None, :], n, axis=1), np.repeat(h[None, :, :], n, axis=0)], axis=-1
        )
        g = expit((e @ head["w"]).squeeze(-1) + head["b"][0])
        mask = 1.0 - np.eye(n)
        dg = 20.0 * mask * 2.0 * (g - adjacency)
        dz = dg * g * (1.0 - g)
        de = dz[:, :, None] * head["w"].ravel()[None, None, :]
        close = dict(rtol=0.0, atol=1e-12)
        assert abs(value - float((mask * (g - adjacency) ** 2).sum())) <= 1e-12
        assert np.allclose(d_h, de[:, :, :d2].sum(axis=1) + de[:, :, d2:].sum(axis=0), **close)
        assert np.allclose(d_a, -dg, **close)
        assert np.allclose(grads["w"], (e.reshape(-1, 2 * d2).T @ dz.ravel())[:, None], **close)
        assert np.allclose(grads["b"], [dz.sum()], **close)

    def test_pair_terms_are_order_sensitive(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((2, 3))
        head = {"w": rng.standard_normal((6, 1)), "b": np.array([0.1])}
        from scipy.special import expit

        g01 = expit(np.concatenate([h[0], h[1]]) @ head["w"].ravel() + head["b"][0])
        g10 = expit(np.concatenate([h[1], h[0]]) @ head["w"].ravel() + head["b"][0])
        assert g01 != pytest.approx(g10)


class TestAcyclicity:
    def test_zero_matrix(self):
        assert acyclicity(np.zeros((4, 4)))[0] == pytest.approx(0.0, abs=1e-12)

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
            assert topological_order((a > 0).astype(int)) is not None
            assert acyclicity(a)[0] == pytest.approx(0.0, abs=1e-10)

    def test_cyclic_graphs_are_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            a = np.zeros((n, n))
            cycle = rng.permutation(n)[: int(rng.integers(2, n + 1))]
            for u, v in zip(cycle, np.roll(cycle, -1)):
                a[u, v] = rng.uniform(0.2, 1.0)
            assert topological_order((a > 0).astype(int)) is None
            assert acyclicity(a)[0] > 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            acyclicity(np.array([[0.0, np.inf], [0.0, 0.0]]))


def _truncated_series_oracle(b: np.ndarray, terms: int) -> float:
    total = np.eye(b.shape[0])
    power = np.eye(b.shape[0])
    factorial = 1.0
    for k in range(1, terms + 1):
        power = power @ b
        factorial *= k
        total = total + power / factorial
    return float(np.trace(total) - b.shape[0])


class TestTotalObjective:
    def test_all_zero_components(self):
        cfg, batch_m, batch_l, params = toy_setup()
        # zero every parameter: encoders/decoders output zero, targets zero
        for key in params:
            params[key] = np.zeros_like(params[key])
        zero_batch_m = build_lagged(np.zeros((3, 6)), cfg.p)
        zero_batch_l = build_lagged(np.zeros((3, 6)), cfg.p)
        # free weights 0 -> A entries 0.5: blank them via large negative weights
        params["metric.adj"] = np.full((3, 3), -60.0)
        params["log.adj"] = np.full((3, 3), -60.0)
        total, breakdown, _ = objective_gradients(params, zero_batch_m, zero_batch_l, (0.5, 0.5), cfg)
        # node loss of identical zero-ish rows is log(n)-like but H is exactly
        # zero here so cosine floors kick in; check the other terms instead
        assert breakdown["var"] == pytest.approx(0.0, abs=1e-20)
        assert breakdown["orth"] == pytest.approx(0.0, abs=1e-20)
        assert breakdown["sparsity"] == pytest.approx(0.0, abs=1e-10)
        assert breakdown["acyclicity"] == pytest.approx(0.0, abs=1e-10)

    def test_sparsity_hand_value(self):
        cfg, batch_m, batch_l, params = toy_setup(n=3)
        params["metric.adj"] = np.zeros((3, 3))  # sigmoid -> 0.5 off-diagonal
        params["log.adj"] = np.full((3, 3), -60.0)
        _, breakdown, _ = objective_gradients(params, batch_m, batch_l, (0.5, 0.5), cfg)
        # 6 off-diagonal entries at 0.5 in the metric adjacency only
        assert breakdown["sparsity"] == pytest.approx(cfg.lambda5 * 3.0, abs=1e-8)

    def test_doubling_lambda1_doubles_var_contribution(self):
        cfg, batch_m, batch_l, params = toy_setup()
        _, base, _ = objective_gradients(params, batch_m, batch_l, (0.5, 0.5), cfg)
        cfg2 = LearnerConfig(p=2, d1=4, d2=3, seed=cfg.seed, lambda1=2 * cfg.lambda1)
        _, doubled, _ = objective_gradients(params, batch_m, batch_l, (0.5, 0.5), cfg2)
        assert doubled["var"] == pytest.approx(2.0 * base["var"], rel=1e-12)

    def test_breakdown_total_is_sum_of_terms(self):
        cfg, batch_m, batch_l, params = toy_setup()
        total, b, _ = objective_gradients(params, batch_m, batch_l, (0.3, 0.7), cfg, multiplier=3.0)
        assert total == pytest.approx(
            b["var"] + b["orth"] + b["node"] + b["edge"] + b["sparsity"] + b["acyclicity"]
        )

    def test_attention_must_sum_to_one(self):
        cfg, batch_m, batch_l, params = toy_setup()
        with pytest.raises(ValueError):
            objective_gradients(params, batch_m, batch_l, (0.6, 0.6), cfg)


class TestObjectiveGradients:
    def test_matches_central_differences_all_groups(self):
        self.check_central_differences(workspace=None)

    def test_matches_central_differences_with_a_reused_workspace(self):
        self.check_central_differences(workspace=Workspace())

    def check_central_differences(self, workspace):
        cfg, batch_m, batch_l, params = toy_setup()
        attention = (0.4, 0.6)

        def objective():
            return objective_gradients(params, batch_m, batch_l, attention, cfg, 1.7, workspace)

        _, _, grads = objective()
        eps = 1e-4
        for key, arr in params.items():
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                plus = objective()[0]
                arr[idx] = orig - eps
                minus = objective()[0]
                arr[idx] = orig
                numeric[idx] = (plus - minus) / (2 * eps)
                it.iternext()
            a_norm, n_norm = np.linalg.norm(grads[key]), np.linalg.norm(numeric)
            if max(a_norm, n_norm) < 1e-7:
                continue
            rel = np.linalg.norm(grads[key] - numeric) / max(a_norm, n_norm)
            assert rel < 1e-3, f"{key}: rel err {rel}"


class TestWorkspace:
    def test_results_survive_a_second_call_on_the_same_workspace(self):
        cfg, batch_m, batch_l, params = toy_setup(n=4, t_len=9)
        other = init_params(4, LearnerConfig(p=2, d1=4, d2=3, seed=99))
        workspace = Workspace()
        total, breakdown, grads = objective_gradients(
            params, batch_m, batch_l, (0.4, 0.6), cfg, 1.7, workspace
        )
        kept = (total, dict(breakdown), {key: g.copy() for key, g in grads.items()})
        other_total = objective_gradients(other, batch_m, batch_l, (0.4, 0.6), cfg, 1.7, workspace)[0]
        assert other_total != total
        assert (total, breakdown) == kept[:2]
        for key, g in grads.items():
            assert np.array_equal(g, kept[2][key]), key
        # the workspace carries nothing from one call into the next
        again = objective_gradients(params, batch_m, batch_l, (0.4, 0.6), cfg, 1.7, workspace)
        fresh = objective_gradients(params, batch_m, batch_l, (0.4, 0.6), cfg, 1.7)
        for result in (again, fresh):
            assert result[:2] == kept[:2]
            for key, g in result[2].items():
                assert np.array_equal(g, kept[2][key]), key

    def test_two_fits_in_one_process_are_bitwise_equal(self):
        rng = np.random.default_rng(4)
        names = ["a", "b", "c", "d"]
        metric = ModalityPanel(rng.standard_normal((5, 30)), names)
        log = ModalityPanel(rng.standard_normal((5, 30)), names)
        cfg = LearnerConfig(p=2, d1=4, d2=3, epochs=6, acyclicity_every=2, seed=2)
        first, second = (fit(metric, log, (0.3, 0.7), cfg) for _ in range(2))
        for name in ("A_metric", "A_log"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert first.loss_history == second.loss_history
        assert (first.h_metric, first.h_log) == (second.h_metric, second.h_log)


class TestPrecision:
    def test_float32_gradients_agree_with_float64(self):
        cfg, batch_m, batch_l, params = toy_setup()
        total, _, grads = objective_gradients(params, batch_m, batch_l, (0.4, 0.6), cfg, 1.7)
        total32, _, grads32 = objective_gradients(
            *as_float32(params, batch_m, batch_l), (0.4, 0.6), cfg, 1.7
        )
        # float32 keeps about 7 digits; 1e-3 is the finite-difference checks' tolerance
        assert abs(total32 - total) <= 1e-3 * abs(total)
        for key, g in grads.items():
            rel = np.linalg.norm(grads32[key] - g) / np.linalg.norm(g)
            assert rel < 1e-3, f"{key}: rel err {rel}"

    def test_a_float32_call_keeps_every_array_in_float32(self):
        cfg, batch_m, batch_l, params = toy_setup(n=4, t_len=9)
        params, batch_m, batch_l = as_float32(params, batch_m, batch_l)
        workspace = Workspace()
        _, _, grads = objective_gradients(params, batch_m, batch_l, (0.4, 0.6), cfg, 1.7, workspace)
        assert {key: g.dtype for key, g in grads.items()} == {key: np.float32 for key in params}
        assert workspace._store
        assert {key: a.dtype for key, a in workspace._store.items()} == {
            key: np.float32 for key in workspace._store
        }

    def test_fit_trains_in_float32(self):
        rng = np.random.default_rng(4)
        names = ["a", "b", "c", "d"]
        metric = ModalityPanel(rng.standard_normal((5, 30)), names)
        log = ModalityPanel(rng.standard_normal((5, 30)), names)
        structure = fit(metric, log, (0.3, 0.7), LearnerConfig(p=2, d1=4, d2=3, epochs=2, seed=2))
        assert {value.dtype for value in structure.params.values()} == {np.dtype(np.float32)}
        assert structure.A_metric.dtype == structure.A_log.dtype == np.float32
        assert structure.standardization["metric"]["mean"].dtype == np.float64


class TestSchedule:
    def test_monotone_non_decreasing(self):
        cfg = LearnerConfig(acyclicity_base=1.0, acyclicity_factor=2.0, acyclicity_every=100)
        values = [cfg.acyclicity_multiplier(e) for e in range(500)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0
        assert values[100] == 2.0
        assert values[499] == 16.0

    def test_decreasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            LearnerConfig(acyclicity_factor=0.5)


class TestConfigValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LearnerConfig(lambda3=-1.0)

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            LearnerConfig(p=0)


class TestPersistence:
    def test_round_trip_keeps_every_field(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ["a", "b"]
        metric = ModalityPanel(3.0 + 2.0 * rng.standard_normal((3, 12)), names)
        log = ModalityPanel(rng.standard_normal((3, 12)) - 1.0, names)
        cfg = LearnerConfig(p=2, d1=4, d2=3, epochs=3, seed=1)
        structure = fit(metric, log, (0.4, 0.6), cfg)
        save_structure(structure, tmp_path / "structure.npz")
        restored = load_structure(tmp_path / "structure.npz")

        assert restored.config == structure.config
        assert restored.node_names == structure.node_names
        assert (restored.h_metric, restored.h_log, restored.converged) == (
            structure.h_metric, structure.h_log, structure.converged
        )
        assert restored.loss_history == structure.loss_history
        for name in ("A_metric", "A_log"):
            assert np.array_equal(getattr(restored, name), getattr(structure, name))
        assert restored.params.keys() == structure.params.keys()
        for key, value in structure.params.items():
            assert np.array_equal(restored.params[key], value)
        assert set(restored.standardization) == {"metric", "log"}
        for modality, stats in structure.standardization.items():
            assert set(restored.standardization[modality]) == {"mean", "std"}
            for stat, values in stats.items():
                assert np.array_equal(restored.standardization[modality][stat], values)
