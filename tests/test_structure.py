import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from mmrca.panel import ModalityPanel
from mmrca.simulate import topological_order
from mmrca.structure import (
    LaggedBatch,
    LearnerConfig,
    Workspace,
    acyclicity,
    adjacency_from_free,
    build_lagged,
    expm,
    encode,
    encode_backward,
    fit,
    init_params,
    load_structure,
    loss_orth,
    loss_orth_backward,
    loss_var,
    loss_var_backward,
    objective_gradients,
    save_structure,
)

MODALITIES = ("metric", "log")  # the order of the leading axis of every stacked array


def toy_setup(n=3, t_len=6, seed=0, **cfg_overrides):
    """A config, a lagged batch stacked over (metric, log) and the initial parameters."""
    rng = np.random.default_rng(seed)
    cfg = LearnerConfig(p=2, d1=4, seed=seed + 1, **cfg_overrides)
    batch = build_lagged(rng.standard_normal((2, n, t_len)), cfg.p)
    params = init_params(n, cfg)
    return cfg, batch, params


def as_float32(params, batch):
    """The parameters and the batch cast to float32, as fit casts them."""
    return (
        {key: value.astype(np.float32) for key, value in params.items()},
        LaggedBatch(batch.history.astype(np.float32), batch.target.astype(np.float32)),
    )


def modality(params, v):
    """The parameter blocks of modality v (0 = metric, 1 = log)."""
    return {key: value[v] for key, value in params.items()}


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

    def test_stacked_series_lag_each_slice(self):
        values = np.random.default_rng(0).standard_normal((2, 3, 7))
        batch = build_lagged(values, p=2)
        assert batch.history.shape == (2, 3, 5, 2)
        assert batch.target.shape == (2, 3, 5)
        for v in range(2):
            single = build_lagged(values[v], p=2)
            assert np.array_equal(batch.history[v], single.history)
            assert np.array_equal(batch.target[v], single.target)


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
        cfg, batch, params = toy_setup()
        (r_c, r_s), _ = encode(batch, np.zeros((2, 3, 3)), params)

        # oracle: a self-only forward pass (aggregated part identically zero)
        def self_only(x, w1, b1, w2, b2):
            z1 = np.concatenate([x, np.zeros_like(x)], axis=-1)
            h1 = np.tanh(z1 @ w1 + b1)
            z2 = np.concatenate([h1, np.zeros_like(h1)], axis=-1)
            return np.tanh(z2 @ w2 + b2)

        for v in range(2):
            mod = modality(params, v)
            expected = self_only(batch.history[v], mod["enc_c.w1"], mod["enc_c.b1"],
                                 mod["enc_c.w2"], mod["enc_c.b2"])
            assert np.allclose(r_c[v], expected)

    def test_permutation_equivariance(self):
        cfg, batch, params = toy_setup(n=4, t_len=7)
        rng = np.random.default_rng(3)
        adjacency = rng.uniform(size=(2, 4, 4)) * (1.0 - np.eye(4))
        (r_c, r_s), _ = encode(batch, adjacency, params)

        perm = np.array([2, 0, 3, 1])
        permuted_batch = LaggedBatch(history=batch.history[:, perm], target=batch.target[:, perm])
        permuted_adj = adjacency[:, perm][:, :, perm]
        (r_c_p, r_s_p), _ = encode(permuted_batch, permuted_adj, params)
        assert np.allclose(r_c_p, r_c[:, perm])
        assert np.allclose(r_s_p, r_s[:, perm])

    def test_output_shapes(self):
        cfg, batch, params = toy_setup()
        (r_c, r_s), _ = encode(batch, np.zeros((2, 3, 3)), params)
        m = batch.target.shape[-1]
        assert r_c.shape == (2, 3, m, cfg.d1)
        assert r_s.shape == (2, 3, m, cfg.d1)


class TestLossVar:
    def decoder(self, seed=0, d1=4):
        rng = np.random.default_rng(seed)
        return {
            "dec.w1": rng.standard_normal((2 * d1, d1)),
            "dec.b1": np.zeros(d1),
            "dec.w2": rng.standard_normal((2 * d1, 1)),
            "dec.b2": np.zeros(1),
        }

    def test_zero_when_output_matches(self):
        # force the decoder to output zero and pass a zero target
        dec = self.decoder()
        dec["dec.w1"][:] = 0.0
        dec["dec.w2"][:] = 0.0
        r = np.random.default_rng(1).standard_normal((2, 5, 4))
        assert loss_var(np.zeros((2, 5)), r, np.zeros_like(r), np.zeros((2, 2)), dec)[0] == 0.0

    def test_zero_output_gives_squared_norm(self):
        dec = self.decoder()
        dec["dec.w1"][:] = 0.0
        dec["dec.w2"][:] = 0.0
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
            h1 = np.tanh(np.concatenate([x, agg], axis=1) @ dec["dec.w1"] + dec["dec.b1"])
            agg2 = adjacency.T @ h1
            out = np.concatenate([h1, agg2], axis=1) @ dec["dec.w2"] + dec["dec.b2"]
            for i in range(2):
                total += (target[i, t] - out[i, 0]) ** 2
        assert value == pytest.approx(total)


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

    def test_a_stack_scales_each_matrix_by_its_own_norm(self, dtype):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.0, 1.0, (2, 6, 6))
        a[0] *= 1e-3  # 1-norm near 4e-3: no squaring
        a[1] *= 4.0  # 1-norm near 13: squared twice
        a = a.astype(dtype)
        got = self.assert_matches_scipy(a)
        for v in range(2):
            assert np.array_equal(got[v], expm(a[v]))

    def test_zero_matrix_gives_the_identity(self, dtype):
        assert np.array_equal(expm(np.zeros((2, 5, 5), dtype)), np.broadcast_to(np.eye(5), (2, 5, 5)))

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


def per_modality_objective(params, batch, attention, cfg, multiplier):
    """The objective of two modalities held apart, composed from the term functions.

    Every term runs on one modality slice at a time, and the sums accumulate
    in the order the stacked objective promises: d_combined = metric + log,
    d_r_c = w * d_combined, then + orth, and d_adj = var + enc + lambda5 +
    acyclicity. Each per-modality sum starts from zero, as when every gradient
    was a separate array.
    """
    a_log, a_metric = attention
    weights = (a_metric, a_log)
    sub = [modality(params, v) for v in range(2)]
    batches = [LaggedBatch(batch.history[v], batch.target[v]) for v in range(2)]
    adj = [adjacency_from_free(s["adj"]) for s in sub]
    mask = 1.0 - np.eye(adj[0].shape[0], dtype=adj[0].dtype)
    rep, enc = zip(*(encode(batches[v], adj[v], sub[v]) for v in range(2)))
    r_combined = rep[1][0] * a_log
    r_combined += rep[0][0] * a_metric
    var = [loss_var(batches[v].target, r_combined, rep[v][1], adj[v], sub[v]) for v in range(2)]
    orth = [loss_orth(rep[v][0], rep[v][1]) for v in range(2)]
    acyc = [acyclicity(adj[v]) for v in range(2)]

    breakdown = {
        "var": cfg.lambda1 * sum(float(var[v][0]) for v in range(2)),
        "orth": cfg.lambda2 * sum(float(orth[v][0]) for v in range(2)),
        "sparsity": cfg.lambda5 * sum(float(adj[v].sum()) for v in range(2)),
        "acyclicity": multiplier * sum(float(acyc[v][0]) for v in range(2)),
        "h_metric": float(acyc[0][0]),
        "h_log": float(acyc[1][0]),
        "multiplier": multiplier,
    }
    breakdown["total"] = (
        breakdown["var"] + breakdown["orth"] + breakdown["sparsity"] + breakdown["acyclicity"]
    )

    grads = {key: np.empty_like(value) for key, value in params.items()}
    d_combined = np.zeros_like(r_combined)
    d_r_s, d_a_var = [], []
    for v in range(2):
        d_r, d_a, dec_grads = loss_var_backward(cfg.lambda1, var[v][1])
        d_r_s.append(d_r)
        d_a_var.append(d_a)
        for key, g in dec_grads.items():
            grads[key][v] = g
        d_combined += d_r
    for v in range(2):
        d_r_c = np.zeros_like(r_combined)
        d_r_c += d_combined * weights[v]
        d_r_c_orth, d_r_s_orth = loss_orth_backward(cfg.lambda2, orth[v][1])
        d_r_c += d_r_c_orth
        d_r_s[v] += d_r_s_orth
        d_a_enc, enc_grads = encode_backward((d_r_c, d_r_s[v]), enc[v])
        for key, g in enc_grads.items():
            grads[key][v] = g
        d_adj = d_a_var[v] + d_a_enc + cfg.lambda5 + multiplier * acyc[v][1].T * 2.0 * adj[v]
        grads["adj"][v] = d_adj * adj[v] * (1.0 - adj[v]) * mask
    return breakdown["total"], breakdown, grads


class TestStackedModalities:
    def test_every_block_is_stacked_over_the_two_modalities(self):
        cfg, batch, params = toy_setup()
        assert len(params) == 13
        assert params["adj"].shape == (2, 3, 3)
        assert all(value.shape[0] == 2 for value in params.values())
        # the metric blocks are drawn first, so the metric adjacency is the seed's first draw
        first = 0.1 * np.random.default_rng(cfg.seed).standard_normal((3, 3))
        assert np.array_equal(params["adj"][0], first)

    @pytest.mark.parametrize("n,p,d1", [(3, 2, 4), (6, 3, 16)])
    def test_each_block_keeps_its_values_from_when_the_retired_blocks_were_drawn(self, n, p, d1):
        # the draw order that included the entity MLP and the edge head, both 16 wide
        rng = np.random.default_rng(5)
        old = []
        for _ in MODALITIES:
            block = {"adj": 0.1 * rng.standard_normal((n, n))}
            for enc in ("enc_c", "enc_s"):
                block[f"{enc}.w1"] = rng.standard_normal((2 * p, d1)) / np.sqrt(2 * p)
                block[f"{enc}.b1"] = np.zeros(d1)
                block[f"{enc}.w2"] = rng.standard_normal((2 * d1, d1)) / np.sqrt(2 * d1)
                block[f"{enc}.b2"] = np.zeros(d1)
            rng.standard_normal((d1, 16))  # mlp.w1
            rng.standard_normal((16, 16))  # mlp.w2
            block["dec.w1"] = rng.standard_normal((2 * d1, d1)) / np.sqrt(2 * d1)
            block["dec.b1"] = np.zeros(d1)
            block["dec.w2"] = rng.standard_normal((2 * d1, 1)) / np.sqrt(2 * d1)
            block["dec.b2"] = np.zeros(1)
            rng.standard_normal((32, 1))  # edge.w
            old.append(block)
        params = init_params(n, LearnerConfig(p=p, d1=d1, seed=5))
        assert params.keys() == old[0].keys()
        for key, value in params.items():
            for v, name in enumerate(MODALITIES):
                assert value[v].tobytes() == old[v][key].tobytes(), f"{name}.{key}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n,t_len", [(3, 6), (4, 9), (7, 30)])
    def test_stack_matches_the_per_modality_objective_bitwise(self, dtype, n, t_len):
        cfg, batch, params = toy_setup(n=n, t_len=t_len)
        params = {key: value.astype(dtype) for key, value in params.items()}
        batch = LaggedBatch(batch.history.astype(dtype), batch.target.astype(dtype))
        total, breakdown, grads = objective_gradients(params, batch, (0.3, 0.7), cfg, 1.7)
        ref_total, ref_breakdown, ref_grads = per_modality_objective(params, batch, (0.3, 0.7), cfg, 1.7)
        assert total == ref_total
        assert breakdown == ref_breakdown
        assert grads.keys() == ref_grads.keys()
        for key, g in grads.items():
            assert g.dtype == ref_grads[key].dtype == dtype, key
            assert g.shape == ref_grads[key].shape, key
            assert g.tobytes() == ref_grads[key].tobytes(), key


class TestTotalObjective:
    def test_all_zero_components(self):
        cfg, batch, params = toy_setup()
        # zero every parameter: encoders/decoders output zero, targets zero
        for key in params:
            params[key] = np.zeros_like(params[key])
        zero_batch = build_lagged(np.zeros((2, 3, 6)), cfg.p)
        # free weights 0 -> A entries 0.5: blank them via large negative weights
        params["adj"] = np.full((2, 3, 3), -60.0)
        total, breakdown, _ = objective_gradients(params, zero_batch, (0.5, 0.5), cfg)
        assert breakdown["var"] == pytest.approx(0.0, abs=1e-20)
        assert breakdown["orth"] == pytest.approx(0.0, abs=1e-20)
        assert breakdown["sparsity"] == pytest.approx(0.0, abs=1e-10)
        assert breakdown["acyclicity"] == pytest.approx(0.0, abs=1e-10)

    def test_sparsity_hand_value(self):
        cfg, batch, params = toy_setup(n=3)
        params["adj"][0] = 0.0  # sigmoid -> 0.5 off-diagonal
        params["adj"][1] = -60.0
        _, breakdown, _ = objective_gradients(params, batch, (0.5, 0.5), cfg)
        # 6 off-diagonal entries at 0.5 in the metric adjacency only
        assert breakdown["sparsity"] == pytest.approx(cfg.lambda5 * 3.0, abs=1e-8)

    def test_doubling_lambda1_doubles_var_contribution(self):
        cfg, batch, params = toy_setup()
        _, base, _ = objective_gradients(params, batch, (0.5, 0.5), cfg)
        cfg2 = LearnerConfig(p=2, d1=4, seed=cfg.seed, lambda1=2 * cfg.lambda1)
        _, doubled, _ = objective_gradients(params, batch, (0.5, 0.5), cfg2)
        assert doubled["var"] == pytest.approx(2.0 * base["var"], rel=1e-12)

    def test_breakdown_total_is_sum_of_terms(self):
        cfg, batch, params = toy_setup()
        total, b, _ = objective_gradients(params, batch, (0.3, 0.7), cfg, multiplier=3.0)
        assert total == pytest.approx(
            b["var"] + b["orth"] + b["sparsity"] + b["acyclicity"]
        )

    def test_attention_must_sum_to_one(self):
        cfg, batch, params = toy_setup()
        with pytest.raises(ValueError):
            objective_gradients(params, batch, (0.6, 0.6), cfg)


class TestObjectiveGradients:
    def test_matches_central_differences_all_groups(self):
        self.check_central_differences(workspace=None)

    def test_matches_central_differences_with_a_reused_workspace(self):
        self.check_central_differences(workspace=Workspace())

    def check_central_differences(self, workspace):
        cfg, batch, params = toy_setup()
        attention = (0.4, 0.6)

        def objective():
            return objective_gradients(params, batch, attention, cfg, 1.7, workspace)

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
            # each modality's block is checked on its own, as when they were separate arrays
            for v, name in enumerate(MODALITIES):
                a_norm, n_norm = np.linalg.norm(grads[key][v]), np.linalg.norm(numeric[v])
                if max(a_norm, n_norm) < 1e-7:
                    continue
                rel = np.linalg.norm(grads[key][v] - numeric[v]) / max(a_norm, n_norm)
                assert rel < 1e-3, f"{name}.{key}: rel err {rel}"


class TestWorkspace:
    def test_results_survive_a_second_call_on_the_same_workspace(self):
        cfg, batch, params = toy_setup(n=4, t_len=9)
        other = init_params(4, LearnerConfig(p=2, d1=4, seed=99))
        workspace = Workspace()
        total, breakdown, grads = objective_gradients(params, batch, (0.4, 0.6), cfg, 1.7, workspace)
        kept = (total, dict(breakdown), {key: g.copy() for key, g in grads.items()})
        other_total = objective_gradients(other, batch, (0.4, 0.6), cfg, 1.7, workspace)[0]
        assert other_total != total
        assert (total, breakdown) == kept[:2]
        for key, g in grads.items():
            assert np.array_equal(g, kept[2][key]), key
        # the workspace carries nothing from one call into the next
        again = objective_gradients(params, batch, (0.4, 0.6), cfg, 1.7, workspace)
        fresh = objective_gradients(params, batch, (0.4, 0.6), cfg, 1.7)
        for result in (again, fresh):
            assert result[:2] == kept[:2]
            for key, g in result[2].items():
                assert np.array_equal(g, kept[2][key]), key

    def test_two_fits_in_one_process_are_bitwise_equal(self):
        rng = np.random.default_rng(4)
        names = ["a", "b", "c", "d"]
        metric = ModalityPanel(rng.standard_normal((5, 30)), names)
        log = ModalityPanel(rng.standard_normal((5, 30)), names)
        cfg = LearnerConfig(p=2, d1=4, epochs=6, acyclicity_every=2, seed=2)
        first, second = (fit(metric, log, (0.3, 0.7), cfg) for _ in range(2))
        for name in ("A_metric", "A_log"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert first.loss_history == second.loss_history
        assert (first.h_metric, first.h_log) == (second.h_metric, second.h_log)


class TestPrecision:
    def test_float32_gradients_agree_with_float64(self):
        cfg, batch, params = toy_setup()
        total, _, grads = objective_gradients(params, batch, (0.4, 0.6), cfg, 1.7)
        total32, _, grads32 = objective_gradients(*as_float32(params, batch), (0.4, 0.6), cfg, 1.7)
        # float32 keeps about 7 digits; 1e-3 is the finite-difference checks' tolerance
        assert abs(total32 - total) <= 1e-3 * abs(total)
        for key, g in grads.items():
            for v, name in enumerate(MODALITIES):
                rel = np.linalg.norm(grads32[key][v] - g[v]) / np.linalg.norm(g[v])
                assert rel < 1e-3, f"{name}.{key}: rel err {rel}"

    def test_a_float32_call_keeps_every_array_in_float32(self):
        cfg, batch, params = toy_setup(n=4, t_len=9)
        params, batch = as_float32(params, batch)
        workspace = Workspace()
        _, _, grads = objective_gradients(params, batch, (0.4, 0.6), cfg, 1.7, workspace)
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
        structure = fit(metric, log, (0.3, 0.7), LearnerConfig(p=2, d1=4, epochs=2, seed=2))
        assert {value.dtype for value in structure.params.values()} == {np.dtype(np.float32)}
        assert structure.A_metric.dtype == structure.A_log.dtype == np.float32
        assert structure.standardization["metric"]["mean"].dtype == np.float64


class TestSchedule:
    def test_monotone_non_decreasing(self):
        cfg = LearnerConfig(acyclicity_every=100)
        values = [cfg.acyclicity_multiplier(e) for e in range(500)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0
        assert values[100] == 2.0
        assert values[499] == 16.0

    def test_a_period_below_one_rejected(self):
        with pytest.raises(ValueError, match="acyclicity_every must be >= 1"):
            LearnerConfig(acyclicity_every=0)


class TestConfigValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LearnerConfig(lambda2=-1.0)

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            LearnerConfig(p=0)

    @pytest.mark.parametrize("field,value", [("lr", 0.0), ("lr", -0.02), ("epochs", 0)])
    def test_learning_rate_and_epochs_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnerConfig(**{field: value})


class TestFitInputs:
    def test_panels_must_list_the_same_nodes_in_the_same_order(self):
        rng = np.random.default_rng(0)
        metric = ModalityPanel(rng.standard_normal((3, 12)), ["a", "b"])
        log = ModalityPanel(rng.standard_normal((3, 12)), ["b", "a"])
        with pytest.raises(ValueError, match="same nodes in the same order"):
            fit(metric, log, (0.5, 0.5), LearnerConfig(p=2, d1=4, epochs=1))


class TestPersistence:
    def test_round_trip_keeps_every_field(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ["a", "b"]
        metric = ModalityPanel(3.0 + 2.0 * rng.standard_normal((3, 12)), names)
        log = ModalityPanel(rng.standard_normal((3, 12)) - 1.0, names)
        cfg = LearnerConfig(p=2, d1=4, epochs=3, seed=1)
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
