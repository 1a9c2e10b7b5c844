"""Joint causal structure learning over the metric and log panels.

Each modality owns a learnable adjacency (sigmoid of free weights, zero
diagonal) plus a pair of message-passing encoders producing shared
(modality-invariant) and private (modality-specific) representations. A
message-passing decoder predicts the next value of every series from its
p-lagged history; contrastive, orthogonality and edge-reconstruction terms
couple the two modalities; an entrywise L1 penalty and the trace-exponential
acyclicity penalty shape the adjacencies.

Adjacency orientation: A[i, j] is the weight of edge i -> j (i causes j), so
message passing aggregates each node's in-neighbors via A^T.

All gradients are hand-derived; `objective_gradients` is the single source of
truth used both by `fit` and by the finite-difference checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import expit

from .nn import Adam
from .panel import ModalityPanel

MODALITIES = ("metric", "log")


# --- configuration and containers ---------------------------------------------


@dataclass
class LearnerConfig:
    p: int = 3
    d1: int = 16
    d2: int = 16
    lambda1: float = 50.0
    lambda2: float = 1.0
    lambda3: float = 20.0
    lambda4: float = 20.0
    lambda5: float = 0.1
    lr: float = 0.02
    epochs: int = 600
    seed: int = 0
    temperature: float = 0.5
    contrastive_mode: str = "infonce"  # or "ratio" (the literal cosine quotient)
    acyclicity_base: float = 1.0
    acyclicity_factor: float = 2.0
    acyclicity_every: int = 100
    h_tol: float = 1e-3
    standardize: bool = True

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("lag order p must be >= 1")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("hidden dimensions must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.contrastive_mode not in ("infonce", "ratio"):
            raise ValueError("contrastive_mode must be 'infonce' or 'ratio'")
        if self.acyclicity_factor < 1.0 or self.acyclicity_base <= 0 or self.acyclicity_every < 1:
            raise ValueError("acyclicity schedule must be monotone non-decreasing")

    def acyclicity_multiplier(self, epoch: int) -> float:
        return self.acyclicity_base * self.acyclicity_factor ** (epoch // self.acyclicity_every)


@dataclass
class LaggedBatch:
    history: np.ndarray  # (n, m, p)
    target: np.ndarray  # (n, m)

    def __post_init__(self):
        if self.history.ndim != 3 or self.target.ndim != 2:
            raise ValueError("history must be (n, m, p) and target (n, m)")
        if self.history.shape[:2] != self.target.shape:
            raise ValueError("history and target disagree on (n, m)")


@dataclass
class AdjacencyParam:
    free_weights: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return adjacency_from_free(self.free_weights)


@dataclass
class LearnedStructure:
    A_metric: np.ndarray
    A_log: np.ndarray
    params: dict
    loss_history: dict
    h_metric: float
    h_log: float
    converged: bool
    config: LearnerConfig
    node_names: list[str] = field(default_factory=list)
    standardization: dict = field(default_factory=dict)


def adjacency_from_free(free_weights: np.ndarray) -> np.ndarray:
    a = expit(free_weights)
    a = a * (1.0 - np.eye(a.shape[0]))
    return a


def build_lagged(panel, p: int) -> LaggedBatch:
    """Slice a panel into p-lagged histories and next-step targets (m = T - p)."""
    values = panel.values if isinstance(panel, ModalityPanel) else np.asarray(panel, dtype=float)
    n, t_len = values.shape
    if t_len <= p:
        raise ValueError(f"series length T={t_len} must exceed the lag order p={p}")
    m = t_len - p
    history = np.empty((n, m, p))
    for t in range(m):
        history[:, t, :] = values[:, t : t + p]
    target = values[:, p:].copy()
    return LaggedBatch(history=history, target=target)


# --- message passing primitives -------------------------------------------------


def _mp_forward(x, a, w, b, activation):
    # agg[i] = sum_j A[j, i] x[j]: nodes aggregate their causes
    n = x.shape[0]
    agg = (a.T @ x.reshape(n, -1)).reshape(x.shape)
    z = np.concatenate([x, agg], axis=-1)
    pre = z @ w + b
    out = np.tanh(pre) if activation == "tanh" else pre
    return out, (x, a, z, out, activation)


def _mp_backward(dout, cache, w):
    x, a, z, out, activation = cache
    dpre = dout * (1.0 - out * out) if activation == "tanh" else dout
    n, f = x.shape[0], x.shape[-1]
    dw = z.reshape(-1, z.shape[-1]).T @ dpre.reshape(-1, dpre.shape[-1])
    db = dpre.sum(axis=(0, 1))
    dz = dpre @ w.T
    dx_self, dagg = dz[..., :f], dz[..., f:]
    dagg_flat = dagg.reshape(n, -1)
    dx = dx_self + (a @ dagg_flat).reshape(x.shape)
    da = x.reshape(n, -1) @ dagg_flat.T
    return dx, da, dw, db


def _encoder_forward(history, a, params, prefix):
    h1, c1 = _mp_forward(history, a, params[prefix + "w1"], params[prefix + "b1"], "tanh")
    out, c2 = _mp_forward(h1, a, params[prefix + "w2"], params[prefix + "b2"], "tanh")
    return out, (c1, c2)


def _encoder_backward(dout, caches, params, grads, prefix):
    c1, c2 = caches
    dh1, da2, dw2, db2 = _mp_backward(dout, c2, params[prefix + "w2"])
    dx, da1, dw1, db1 = _mp_backward(dh1, c1, params[prefix + "w1"])
    grads[prefix + "w2"] += dw2
    grads[prefix + "b2"] += db2
    grads[prefix + "w1"] += dw1
    grads[prefix + "b1"] += db1
    return dx, da1 + da2


def _decoder_forward(r, a, params, prefix):
    h1, c1 = _mp_forward(r, a, params[prefix + "w1"], params[prefix + "b1"], "tanh")
    out, c2 = _mp_forward(h1, a, params[prefix + "w2"], params[prefix + "b2"], "linear")
    return out[..., 0], (c1, c2)


def _decoder_backward(dout, caches, params, grads, prefix):
    c1, c2 = caches
    dh1, da2, dw2, db2 = _mp_backward(dout[..., None], c2, params[prefix + "w2"])
    dr, da1, dw1, db1 = _mp_backward(dh1, c1, params[prefix + "w1"])
    grads[prefix + "w2"] += dw2
    grads[prefix + "b2"] += db2
    grads[prefix + "w1"] += dw1
    grads[prefix + "b1"] += db1
    return dr, da1 + da2


def _mlp_forward(r_c, params, prefix):
    pooled = r_c.mean(axis=1)  # (n, d1)
    pre = pooled @ params[prefix + "w1"] + params[prefix + "b1"]
    hidden = np.tanh(pre)
    h = hidden @ params[prefix + "w2"] + params[prefix + "b2"]
    return h, (pooled, hidden, r_c.shape[1])


def _mlp_backward(dh, cache, params, grads, prefix):
    pooled, hidden, m = cache
    grads[prefix + "w2"] += hidden.T @ dh
    grads[prefix + "b2"] += dh.sum(axis=0)
    dhidden = dh @ params[prefix + "w2"].T
    dpre = dhidden * (1.0 - hidden * hidden)
    grads[prefix + "w1"] += pooled.T @ dpre
    grads[prefix + "b1"] += dpre.sum(axis=0)
    dpooled = dpre @ params[prefix + "w1"].T
    return np.repeat(dpooled[:, None, :], m, axis=1) / m


# --- public operations -----------------------------------------------------------


def encode(batch: LaggedBatch, adjacency: np.ndarray, params: dict):
    """Run both encoders plus the entity MLP for one modality.

    `params` holds prefix-free keys (enc_c.w1, enc_s.w1, mlp.w1, ...). Returns
    (R_c, R_s, H): shared representation, private representation and pooled
    entity representation.
    """
    r_c, _ = _encoder_forward(batch.history, adjacency, params, "enc_c.")
    r_s, _ = _encoder_forward(batch.history, adjacency, params, "enc_s.")
    h, _ = _mlp_forward(r_c, params, "mlp.")
    return r_c, r_s, h


def loss_var(target: np.ndarray, r_c: np.ndarray, r_s: np.ndarray, adjacency: np.ndarray, decoder_params: dict) -> float:
    """Squared prediction error of the message-passing decoder on R_c + R_s."""
    out, _ = _decoder_forward(r_c + r_s, adjacency, decoder_params, "")
    return float(((target - out) ** 2).sum())


def loss_orth(r_c: np.ndarray, r_s: np.ndarray) -> float:
    """Sum over entities of the squared Frobenius cross-product of shared/private."""
    if r_c.shape != r_s.shape:
        raise ValueError("shared and private representations must share a shape")
    cross = np.matmul(r_s.transpose(0, 2, 1), r_c)
    return float((cross**2).sum())


def _normalize_rows(h: np.ndarray, eps: float = 1e-8):
    norms = np.linalg.norm(h, axis=1)
    floored = np.maximum(norms, eps)
    return h / floored[:, None], norms, floored


def loss_node(h_metric: np.ndarray, h_log: np.ndarray, temperature: float = 0.5, mode: str = "infonce") -> float:
    """Contrastive agreement between the two modalities' entity representations.

    InfoNCE over cosine similarities with matching entities as positives. The
    "ratio" mode evaluates the literal quotient of raw cosines instead (kept
    for comparison; unbounded when similarities change sign).
    """
    hm, _, _ = _normalize_rows(h_metric)
    hl, _, _ = _normalize_rows(h_log)
    s = hm @ hl.T
    n = s.shape[0]
    if mode == "ratio":
        return float(-np.mean(np.diag(s) / s.sum(axis=1)))
    logits = s / temperature
    lse = np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)) + logits.max(axis=1)
    return float(np.mean(lse - np.diag(logits)))


def loss_edge(h: np.ndarray, adjacency: np.ndarray, edge_params: dict) -> float:
    """Squared error of the sigmoid edge head against the adjacency, diagonal excluded."""
    n = h.shape[0]
    e = np.concatenate(
        [np.repeat(h[:, None, :], n, axis=1), np.repeat(h[None, :, :], n, axis=0)], axis=-1
    )
    g = expit((e @ edge_params["w"]).squeeze(-1) + edge_params["b"][0])
    mask = 1.0 - np.eye(n)
    return float((mask * (g - adjacency) ** 2).sum())


def acyclicity(adjacency: np.ndarray) -> float:
    """Trace-exponential penalty: zero exactly when the weighted graph is acyclic."""
    a = np.asarray(adjacency, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency entries must be finite")
    return float(np.trace(expm(a * a)) - a.shape[0])


# --- full objective ---------------------------------------------------------------


def init_params(n: int, config: LearnerConfig) -> dict:
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for v in MODALITIES:
        params[f"{v}.adj"] = 0.1 * rng.standard_normal((n, n))
        for enc in ("enc_c", "enc_s"):
            params[f"{v}.{enc}.w1"] = rng.standard_normal((2 * config.p, config.d1)) / np.sqrt(2 * config.p)
            params[f"{v}.{enc}.b1"] = np.zeros(config.d1)
            params[f"{v}.{enc}.w2"] = rng.standard_normal((2 * config.d1, config.d1)) / np.sqrt(2 * config.d1)
            params[f"{v}.{enc}.b2"] = np.zeros(config.d1)
        params[f"{v}.mlp.w1"] = rng.standard_normal((config.d1, config.d2)) / np.sqrt(config.d1)
        params[f"{v}.mlp.b1"] = np.zeros(config.d2)
        params[f"{v}.mlp.w2"] = rng.standard_normal((config.d2, config.d2)) / np.sqrt(config.d2)
        params[f"{v}.mlp.b2"] = np.zeros(config.d2)
        params[f"{v}.dec.w1"] = rng.standard_normal((2 * config.d1, config.d1)) / np.sqrt(2 * config.d1)
        params[f"{v}.dec.b1"] = np.zeros(config.d1)
        params[f"{v}.dec.w2"] = rng.standard_normal((2 * config.d1, 1)) / np.sqrt(2 * config.d1)
        params[f"{v}.dec.b2"] = np.zeros(1)
        params[f"{v}.edge.w"] = rng.standard_normal((2 * config.d2, 1)) / np.sqrt(2 * config.d2)
        params[f"{v}.edge.b"] = np.zeros(1)
    return params


def objective_gradients(
    params: dict,
    batch_metric: LaggedBatch,
    batch_log: LaggedBatch,
    attention: tuple[float, float],
    config: LearnerConfig,
    multiplier: float = 1.0,
):
    """Objective value, per-term weighted breakdown, and analytic gradients."""
    a_log, a_metric = attention
    if not np.isclose(a_log + a_metric, 1.0):
        raise ValueError("attention weights must sum to 1")
    batches = {"metric": batch_metric, "log": batch_log}
    weights = {"metric": a_metric, "log": a_log}
    n = batch_metric.history.shape[0]
    mask = 1.0 - np.eye(n)
    grads = {key: np.zeros_like(val) for key, val in params.items()}

    sig = {v: expit(params[f"{v}.adj"]) for v in MODALITIES}
    adj = {v: sig[v] * mask for v in MODALITIES}

    enc_caches, r_c, r_s, mlp_caches, h = {}, {}, {}, {}, {}
    for v in MODALITIES:
        r_c[v], enc_c_cache = _encoder_forward(batches[v].history, adj[v], params, f"{v}.enc_c.")
        r_s[v], enc_s_cache = _encoder_forward(batches[v].history, adj[v], params, f"{v}.enc_s.")
        h[v], mlp_caches_v = _mlp_forward(r_c[v], params, f"{v}.mlp.")
        enc_caches[v] = (enc_c_cache, enc_s_cache)
        mlp_caches[v] = mlp_caches_v

    r_combined = weights["log"] * r_c["log"] + weights["metric"] * r_c["metric"]

    dec_out, dec_caches = {}, {}
    for v in MODALITIES:
        dec_out[v], dec_caches[v] = _decoder_forward(
            r_combined + r_s[v], adj[v], params, f"{v}.dec."
        )

    # ---- loss terms
    var_terms = {v: float(((batches[v].target - dec_out[v]) ** 2).sum()) for v in MODALITIES}
    cross = {v: np.matmul(r_s[v].transpose(0, 2, 1), r_c[v]) for v in MODALITIES}
    orth_terms = {v: float((cross[v] ** 2).sum()) for v in MODALITIES}

    hm_hat, hm_norms, hm_floor = _normalize_rows(h["metric"])
    hl_hat, hl_norms, hl_floor = _normalize_rows(h["log"])
    s = hm_hat @ hl_hat.T
    tau = config.temperature
    if config.contrastive_mode == "ratio":
        row_sums = s.sum(axis=1)
        node_term = float(-np.mean(np.diag(s) / row_sums))
    else:
        logits = s / tau
        shift = logits.max(axis=1, keepdims=True)
        exp_shift = np.exp(logits - shift)
        lse = np.log(exp_shift.sum(axis=1)) + shift.ravel()
        node_term = float(np.mean(lse - np.diag(logits)))

    edge_in, edge_g, edge_terms = {}, {}, {}
    for v in MODALITIES:
        e = np.concatenate(
            [np.repeat(h[v][:, None, :], n, axis=1), np.repeat(h[v][None, :, :], n, axis=0)],
            axis=-1,
        )
        g = expit((e @ params[f"{v}.edge.w"]).squeeze(-1) + params[f"{v}.edge.b"][0])
        edge_in[v], edge_g[v] = e, g
        edge_terms[v] = float((mask * (g - adj[v]) ** 2).sum())

    sparsity_terms = {v: float(adj[v].sum()) for v in MODALITIES}
    expm_cache = {v: expm(adj[v] * adj[v]) for v in MODALITIES}
    h_terms = {v: float(np.trace(expm_cache[v]) - n) for v in MODALITIES}

    breakdown = {
        "var": config.lambda1 * sum(var_terms.values()),
        "orth": config.lambda2 * sum(orth_terms.values()),
        "node": config.lambda3 * node_term,
        "edge": config.lambda4 * sum(edge_terms.values()),
        "sparsity": config.lambda5 * sum(sparsity_terms.values()),
        "acyclicity": multiplier * sum(h_terms.values()),
        "h_metric": h_terms["metric"],
        "h_log": h_terms["log"],
        "multiplier": multiplier,
    }
    total = (
        breakdown["var"]
        + breakdown["orth"]
        + breakdown["node"]
        + breakdown["edge"]
        + breakdown["sparsity"]
        + breakdown["acyclicity"]
    )
    breakdown["total"] = total

    # ---- backward
    d_adj = {v: np.zeros((n, n)) for v in MODALITIES}
    d_r_c = {v: np.zeros_like(r_c[v]) for v in MODALITIES}
    d_r_s = {}
    d_h = {v: np.zeros_like(h[v]) for v in MODALITIES}

    d_combined = np.zeros_like(r_combined)
    for v in MODALITIES:
        dout = config.lambda1 * 2.0 * (dec_out[v] - batches[v].target)
        din, da = _decoder_backward(dout, dec_caches[v], params, grads, f"{v}.dec.")
        d_adj[v] += da
        d_combined += din
        d_r_s[v] = din.copy()
    for v in MODALITIES:
        d_r_c[v] += weights[v] * d_combined

    for v in MODALITIES:
        d_r_c[v] += config.lambda2 * 2.0 * np.matmul(r_s[v], cross[v])
        d_r_s[v] += config.lambda2 * 2.0 * np.matmul(r_c[v], cross[v].transpose(0, 2, 1))

    if config.contrastive_mode == "ratio":
        row_sums = s.sum(axis=1)
        ds = np.zeros_like(s)
        diag = np.diag(s)
        for i in range(n):
            ds[i, :] = diag[i] / (n * row_sums[i] ** 2)
            ds[i, i] -= 1.0 / (n * row_sums[i])
    else:
        p_soft = exp_shift / exp_shift.sum(axis=1, keepdims=True)
        ds = (p_soft - np.eye(n)) / (n * tau)
    d_hm_hat = ds @ hl_hat
    d_hl_hat = ds.T @ hm_hat

    def _through_normalization(d_hat, h_hat, norms, floored):
        d = np.empty_like(d_hat)
        active = norms > 1e-8
        inner = (d_hat * h_hat).sum(axis=1, keepdims=True)
        d_active = (d_hat - h_hat * inner) / floored[:, None]
        d_frozen = d_hat / floored[:, None]
        d[active] = d_active[active]
        d[~active] = d_frozen[~active]
        return d

    d_h["metric"] += config.lambda3 * _through_normalization(d_hm_hat, hm_hat, hm_norms, hm_floor)
    d_h["log"] += config.lambda3 * _through_normalization(d_hl_hat, hl_hat, hl_norms, hl_floor)

    for v in MODALITIES:
        g = edge_g[v]
        dg = config.lambda4 * mask * 2.0 * (g - adj[v])
        d_adj[v] += -dg  # d/dA of (g - A)^2
        dz = dg * g * (1.0 - g)
        grads[f"{v}.edge.w"] += (edge_in[v].reshape(-1, edge_in[v].shape[-1]).T @ dz.ravel())[:, None]
        grads[f"{v}.edge.b"] += np.array([dz.sum()])
        de = dz[:, :, None] * params[f"{v}.edge.w"].ravel()[None, None, :]
        d2 = h[v].shape[1]
        d_h[v] += de[:, :, :d2].sum(axis=1) + de[:, :, d2:].sum(axis=0)

    for v in MODALITIES:
        d_r_c[v] += _mlp_backward(d_h[v], mlp_caches[v], params, grads, f"{v}.mlp.")

    for v in MODALITIES:
        enc_c_cache, enc_s_cache = enc_caches[v]
        _, da_c = _encoder_backward(d_r_c[v], enc_c_cache, params, grads, f"{v}.enc_c.")
        _, da_s = _encoder_backward(d_r_s[v], enc_s_cache, params, grads, f"{v}.enc_s.")
        d_adj[v] += da_c + da_s

    for v in MODALITIES:
        d_adj[v] += config.lambda5
        d_adj[v] += multiplier * expm_cache[v].T * 2.0 * adj[v]
        grads[f"{v}.adj"] += d_adj[v] * sig[v] * (1.0 - sig[v]) * mask

    return total, breakdown, grads


def total_objective(
    params: dict,
    batch_metric: LaggedBatch,
    batch_log: LaggedBatch,
    attention: tuple[float, float],
    config: LearnerConfig,
    multiplier: float = 1.0,
):
    """Objective value with its per-term weighted breakdown (no gradients)."""
    total, breakdown, _ = objective_gradients(
        params, batch_metric, batch_log, attention, config, multiplier
    )
    return total, breakdown


# --- training ----------------------------------------------------------------------


def _standardize(values: np.ndarray):
    mean = values.mean(axis=1, keepdims=True)
    std = values.std(axis=1, keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return (values - mean) / std, mean.ravel(), std.ravel()


def fit(
    metric_panel: ModalityPanel,
    log_panel: ModalityPanel,
    attention: tuple[float, float],
    config: LearnerConfig,
) -> LearnedStructure:
    """Full-batch Adam on the joint objective; deterministic for a fixed seed.

    attention is (a_log, a_metric) and must sum to 1. Rows are z-scored before
    slicing into lagged batches (recorded in the result) so heterogeneous
    scales do not dominate the shared decoder. The acyclicity multiplier
    follows the configured geometric, monotone non-decreasing schedule; if the
    final penalties exceed h_tol the structure is flagged non-converged.
    """
    if metric_panel.values.shape != log_panel.values.shape:
        raise ValueError("metric and log panels must share n and T")
    if metric_panel.n_timesteps < 2 * config.p:
        raise ValueError("panel length must be at least twice the lag order")

    standardization = {}
    values = {}
    for name, panel in (("metric", metric_panel), ("log", log_panel)):
        if config.standardize:
            z, mean, std = _standardize(panel.values)
        else:
            z, mean, std = panel.values.copy(), np.zeros(panel.n_nodes), np.ones(panel.n_nodes)
        values[name] = z
        standardization[name] = {"mean": mean, "std": std}

    batch_metric = build_lagged(values["metric"], config.p)
    batch_log = build_lagged(values["log"], config.p)
    n = batch_metric.history.shape[0]

    params = init_params(n, config)
    optimizer = Adam(params, lr=config.lr)
    history: dict[str, list] = {}
    for epoch in range(config.epochs):
        multiplier = config.acyclicity_multiplier(epoch)
        total, breakdown, grads = objective_gradients(
            params, batch_metric, batch_log, attention, config, multiplier
        )
        if not np.isfinite(total):
            raise FloatingPointError(f"objective became non-finite at epoch {epoch}")
        for key, value in breakdown.items():
            history.setdefault(key, []).append(value)
        optimizer.step(grads)

    a_metric_final = adjacency_from_free(params["metric.adj"])
    a_log_final = adjacency_from_free(params["log.adj"])
    h_metric = acyclicity(a_metric_final)
    h_log = acyclicity(a_log_final)
    return LearnedStructure(
        A_metric=a_metric_final,
        A_log=a_log_final,
        params=params,
        loss_history=history,
        h_metric=h_metric,
        h_log=h_log,
        converged=(h_metric <= config.h_tol and h_log <= config.h_tol),
        config=config,
        node_names=metric_panel.node_names,
        standardization=standardization,
    )


# --- persistence ----------------------------------------------------------------------


def structure_to_adjacency_json(structure: LearnedStructure) -> str:
    final = {key: values[-1] for key, values in structure.loss_history.items()} if structure.loss_history else {}
    payload = {
        "node_names": structure.node_names,
        "A_metric": [[float(v) for v in row] for row in structure.A_metric],
        "A_log": [[float(v) for v in row] for row in structure.A_log],
        "final_losses": final,
        "h_metric": structure.h_metric,
        "h_log": structure.h_log,
        "converged": structure.converged,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_structure(structure: LearnedStructure, path) -> None:
    arrays = {f"param:{k}": v for k, v in structure.params.items()}
    arrays["A_metric"] = structure.A_metric
    arrays["A_log"] = structure.A_log
    for key, values in structure.loss_history.items():
        arrays[f"history:{key}"] = np.asarray(values)
    for modality, stats in structure.standardization.items():
        for stat, values in stats.items():
            arrays[f"standardization:{modality}:{stat}"] = values
    arrays["meta"] = np.frombuffer(
        json.dumps(
            {
                "config": structure.config.__dict__,
                "node_names": structure.node_names,
                "h_metric": structure.h_metric,
                "h_log": structure.h_log,
                "converged": structure.converged,
            }
        ).encode(),
        dtype=np.uint8,
    )
    np.savez(path, **arrays)


def load_structure(path) -> LearnedStructure:
    data = np.load(path)
    meta = json.loads(bytes(data["meta"]).decode())
    params = {k[len("param:"):]: data[k] for k in data.files if k.startswith("param:")}
    history = {k[len("history:"):]: data[k].tolist() for k in data.files if k.startswith("history:")}
    standardization: dict = {}
    for key in data.files:
        if key.startswith("standardization:"):
            _, modality, stat = key.split(":")
            standardization.setdefault(modality, {})[stat] = data[key]
    return LearnedStructure(
        A_metric=data["A_metric"],
        A_log=data["A_log"],
        params=params,
        loss_history=history,
        h_metric=meta["h_metric"],
        h_log=meta["h_log"],
        converged=meta["converged"],
        config=LearnerConfig(**meta["config"]),
        node_names=meta["node_names"],
        standardization=standardization,
    )
