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

Each term of the objective is defined once, as a pair of functions: the
forward (`encode`, `loss_var`, `loss_orth`, `loss_node`, `loss_edge`) returns
(value, cache), and the matching `*_backward(scale, cache)` turns the weight
of that value in the objective (for `encode`, the gradients of its outputs)
into gradients of the term's inputs and parameters. `acyclicity` returns
(h, expm(A * A)), which the gradient reuses. `objective_gradients` composes
these pairs, and is what both `fit` and the finite-difference checks call;
all gradients are hand-derived.

The arrays that grow with the series length (every (n, m, .) forward cache
and backward temporary) live in a `Workspace`, keyed by modality and layer,
and are overwritten in place on every call. The caller owns the workspace:
`fit` creates one per run and passes it to every epoch, and a forward or
`objective_gradients` called without one creates a fresh one. What a forward
returns and caches refers to workspace arrays, so it is valid only until the
next call on the same workspace. What `objective_gradients` returns (the
total, the breakdown and the gradient arrays, which are parameter-sized and
allocated per call) stays valid after the next call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import expm
from scipy.special import expit

from .atomic import atomic_open
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
    acyclicity_base: float = 1.0
    acyclicity_factor: float = 2.0
    acyclicity_every: int = 100
    h_tol: float = 1e-3

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


class Workspace:
    """Named arrays that the learner writes on every epoch instead of allocating anew.

    `array(name, shape)` makes an array on the first request and hands the same
    one out on every later request of that name and shape. `scope(name)` is a
    view of the same store whose names carry the prefix `name.`; `scratch(shape)`
    is one temporary per shape shared by every scope, valid until the next
    scratch request of that shape.
    """

    def __init__(self, _store: dict | None = None, _prefix: str = ""):
        self._store = {} if _store is None else _store
        self._prefix = _prefix

    def scope(self, name: str) -> Workspace:
        return Workspace(self._store, f"{self._prefix}{name}.")

    def array(self, name: str, shape: tuple) -> np.ndarray:
        return self._get(self._prefix + name, shape)

    def scratch(self, shape: tuple) -> np.ndarray:
        return self._get(f"scratch{shape}", shape)

    def _get(self, key: str, shape: tuple) -> np.ndarray:
        arr = self._store.get(key)
        if arr is None or arr.shape != shape:
            arr = self._store[key] = np.empty(shape)
        return arr


def adjacency_from_free(free_weights: np.ndarray) -> np.ndarray:
    a = expit(free_weights)
    a = a * (1.0 - np.eye(a.shape[0]))
    return a


def build_lagged(panel, p: int) -> LaggedBatch:
    """Slice a panel into p-lagged histories and next-step targets (m = T - p)."""
    values = panel.values if isinstance(panel, ModalityPanel) else np.asarray(panel, dtype=float)
    _, t_len = values.shape
    if t_len <= p:
        raise ValueError(f"series length T={t_len} must exceed the lag order p={p}")
    m = t_len - p
    history = sliding_window_view(values, p, axis=1)[:, :m, :].copy()
    target = values[:, p:].copy()
    return LaggedBatch(history=history, target=target)


# --- message passing primitives -------------------------------------------------


def _linear(x, w, out):
    """out = x @ w over the last axis of x, as one 2-D product written into out."""
    np.matmul(x.reshape(-1, x.shape[-1]), w, out=out.reshape(-1, w.shape[-1]))
    return out


def _mp_forward(x, a, w, b, activation, ws):
    """act(x @ w[:f] + agg @ w[f:] + b), where agg[i] = sum_j A[j, i] x[j] aggregates i's causes."""
    n, f = x.shape[0], x.shape[-1]
    agg = ws.array("agg", x.shape)
    np.matmul(a.T, x.reshape(n, -1), out=agg.reshape(n, -1))
    out = _linear(x, w[:f], ws.array("out", x.shape[:-1] + (w.shape[1],)))
    out += _linear(agg, w[f:], ws.scratch(out.shape))
    out += b
    if activation == "tanh":
        np.tanh(out, out=out)
    return out, (x, a, agg, out, activation, ws)


def _mp_backward(dout, cache, w, input_grad=True):
    """-> (dx, dA, dw, db); dx is None when input_grad is false."""
    x, a, agg, out, activation, ws = cache
    n, f = x.shape[0], x.shape[-1]
    if activation == "tanh":
        dpre = np.multiply(out, out, out=ws.array("dpre", out.shape))
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dout
    else:
        dpre = dout
    dpre_flat = dpre.reshape(-1, dpre.shape[-1])
    dw = np.empty(w.shape)
    np.matmul(x.reshape(-1, f).T, dpre_flat, out=dw[:f])
    np.matmul(agg.reshape(-1, f).T, dpre_flat, out=dw[f:])
    # one BLAS product; numpy's sum over the two leading axes is several times slower
    db = np.ones(dpre_flat.shape[0]) @ dpre_flat
    dagg = _linear(dpre, w[f:].T, ws.array("dagg", x.shape))
    da = x.reshape(n, -1) @ dagg.reshape(n, -1).T
    if not input_grad:
        return None, da, dw, db
    dx = _linear(dpre, w[:f].T, ws.array("dx", x.shape))
    dx_agg = ws.scratch(x.shape)
    np.matmul(a, dagg.reshape(n, -1), out=dx_agg.reshape(n, -1))
    dx += dx_agg
    return dx, da, dw, db


def _mp2_forward(x, a, params, prefix, out_activation, ws):
    """Two message-passing layers (tanh, then out_activation) with weights prefix+w1/b1/w2/b2."""
    h1, c1 = _mp_forward(x, a, params[prefix + "w1"], params[prefix + "b1"], "tanh", ws.scope("1"))
    out, c2 = _mp_forward(
        h1, a, params[prefix + "w2"], params[prefix + "b2"], out_activation, ws.scope("2")
    )
    return out, (c1, c2)


def _mp2_backward(dout, caches, params, grads, prefix, input_grad=True):
    """Store the weight gradients in grads; return (dx, dA), dx None unless input_grad."""
    c1, c2 = caches
    dh1, da2, grads[prefix + "w2"], grads[prefix + "b2"] = _mp_backward(dout, c2, params[prefix + "w2"])
    dx, da1, grads[prefix + "w1"], grads[prefix + "b1"] = _mp_backward(
        dh1, c1, params[prefix + "w1"], input_grad
    )
    return dx, da1 + da2


def _mlp_forward(r_c, params, prefix):
    pooled = r_c.mean(axis=1)  # (n, d1)
    pre = pooled @ params[prefix + "w1"] + params[prefix + "b1"]
    hidden = np.tanh(pre)
    h = hidden @ params[prefix + "w2"] + params[prefix + "b2"]
    return h, (pooled, hidden, r_c.shape[1])


def _mlp_backward(dh, cache, params, grads, prefix):
    pooled, hidden, m = cache
    grads[prefix + "w2"] = hidden.T @ dh
    grads[prefix + "b2"] = dh.sum(axis=0)
    dhidden = dh @ params[prefix + "w2"].T
    dpre = dhidden * (1.0 - hidden * hidden)
    grads[prefix + "w1"] = pooled.T @ dpre
    grads[prefix + "b1"] = dpre.sum(axis=0)
    dpooled = dpre @ params[prefix + "w1"].T
    # the mean over m spreads dpooled / m to every step; a read-only view, not a copy
    return np.broadcast_to((dpooled / m)[:, None, :], (dpooled.shape[0], m, dpooled.shape[1]))


def _normalize_rows(h: np.ndarray, eps: float = 1e-8):
    norms = np.linalg.norm(h, axis=1)
    floored = np.maximum(norms, eps)
    return h / floored[:, None], norms, floored


def _normalize_rows_backward(d_hat, h_hat, norms, floored, eps: float = 1e-8):
    # rows whose norm was floored were scaled by a constant, not normalized
    d = np.empty_like(d_hat)
    active = norms > eps
    inner = (d_hat * h_hat).sum(axis=1, keepdims=True)
    d_active = (d_hat - h_hat * inner) / floored[:, None]
    d_frozen = d_hat / floored[:, None]
    d[active] = d_active[active]
    d[~active] = d_frozen[~active]
    return d


# --- objective terms: each forward returns (value, cache) ---------------------------


def encode(
    batch: LaggedBatch, adjacency: np.ndarray, params: dict, workspace: Workspace | None = None
):
    """Run both encoders plus the entity MLP for one modality.

    `params` holds prefix-free keys (enc_c.w1, enc_s.w1, mlp.w1, ...). Returns
    ((R_c, R_s, H), cache): shared representation, private representation and
    pooled entity representation.
    """
    ws = Workspace() if workspace is None else workspace
    r_c, c_cache = _mp2_forward(batch.history, adjacency, params, "enc_c.", "tanh", ws.scope("enc_c"))
    r_s, s_cache = _mp2_forward(batch.history, adjacency, params, "enc_s.", "tanh", ws.scope("enc_s"))
    h, mlp_cache = _mlp_forward(r_c, params, "mlp.")
    return (r_c, r_s, h), (c_cache, s_cache, mlp_cache, params)


def encode_backward(d_out, cache):
    """d_out = (dR_c, dR_s, dH) -> (dA, parameter gradients keyed like encode's params).

    The gradient that H passes back to R_c is added into dR_c in place.
    """
    d_r_c, d_r_s, d_h = d_out
    c_cache, s_cache, mlp_cache, params = cache
    grads: dict[str, np.ndarray] = {}
    d_r_c += _mlp_backward(d_h, mlp_cache, params, grads, "mlp.")
    # the encoders' input is the fixed lagged history: no gradient flows into it
    _, da_c = _mp2_backward(d_r_c, c_cache, params, grads, "enc_c.", input_grad=False)
    _, da_s = _mp2_backward(d_r_s, s_cache, params, grads, "enc_s.", input_grad=False)
    return da_c + da_s, grads


def loss_var(
    target: np.ndarray,
    r_c: np.ndarray,
    r_s: np.ndarray,
    adjacency: np.ndarray,
    decoder_params: dict,
    workspace: Workspace | None = None,
):
    """Squared prediction error of the message-passing decoder on R_c + R_s."""
    ws = Workspace() if workspace is None else workspace
    x = np.add(r_c, r_s, out=ws.array("input", r_c.shape))
    out, caches = _mp2_forward(x, adjacency, decoder_params, "", "linear", ws)
    out = out[..., 0]
    return float(((target - out) ** 2).sum()), (target, out, caches, decoder_params)


def loss_var_backward(scale: float, cache):
    """-> (dR, dA, decoder gradients); dR is the gradient for R_c and for R_s alike."""
    target, out, caches, params = cache
    grads: dict[str, np.ndarray] = {}
    d_r, d_a = _mp2_backward((scale * 2.0 * (out - target))[..., None], caches, params, grads, "")
    return d_r, d_a, grads


def loss_orth(r_c: np.ndarray, r_s: np.ndarray, workspace: Workspace | None = None):
    """Sum over entities of the squared Frobenius cross-product of shared/private."""
    if r_c.shape != r_s.shape:
        raise ValueError("shared and private representations must share a shape")
    cross = np.matmul(r_s.transpose(0, 2, 1), r_c)
    ws = Workspace() if workspace is None else workspace
    return float((cross**2).sum()), (r_c, r_s, cross, ws)


def loss_orth_backward(scale: float, cache):
    """-> (dR_c, dR_s)."""
    r_c, r_s, cross, ws = cache
    d_r_c = np.matmul(r_s, cross, out=ws.array("d_r_c", r_c.shape))
    d_r_c *= scale * 2.0
    d_r_s = np.matmul(r_c, cross.transpose(0, 2, 1), out=ws.array("d_r_s", r_s.shape))
    d_r_s *= scale * 2.0
    return d_r_c, d_r_s


def loss_node(h_metric: np.ndarray, h_log: np.ndarray, temperature: float = 0.5):
    """Contrastive agreement between the two modalities' entity representations.

    InfoNCE over cosine similarities with matching entities as positives.
    """
    hm_hat, hm_norms, hm_floor = _normalize_rows(h_metric)
    hl_hat, hl_norms, hl_floor = _normalize_rows(h_log)
    logits = hm_hat @ hl_hat.T / temperature
    shift = logits.max(axis=1, keepdims=True)
    exp_shift = np.exp(logits - shift)
    lse = np.log(exp_shift.sum(axis=1)) + shift.ravel()
    value = float(np.mean(lse - np.diag(logits)))
    return value, ((hm_hat, hm_norms, hm_floor), (hl_hat, hl_norms, hl_floor), exp_shift, temperature)


def loss_node_backward(scale: float, cache):
    """-> (dH_metric, dH_log)."""
    metric, log, exp_shift, temperature = cache
    n = exp_shift.shape[0]
    p_soft = exp_shift / exp_shift.sum(axis=1, keepdims=True)
    ds = (p_soft - np.eye(n)) / (n * temperature)
    return (
        scale * _normalize_rows_backward(ds @ log[0], *metric),
        scale * _normalize_rows_backward(ds.T @ metric[0], *log),
    )


def loss_edge(h: np.ndarray, adjacency: np.ndarray, edge_params: dict):
    """Squared error of the sigmoid edge head against the adjacency, diagonal excluded.

    The head reads the pair [h_i, h_j], so its logit splits into a source and
    a target part: (h @ w[:d2])[i] + (h @ w[d2:])[j] + b.
    """
    n, d2 = h.shape
    w = edge_params["w"].ravel()
    g = expit((h @ w[:d2])[:, None] + (h @ w[d2:])[None, :] + edge_params["b"][0])
    mask = 1.0 - np.eye(n)
    return float((mask * (g - adjacency) ** 2).sum()), (h, g, adjacency, mask, edge_params)


def loss_edge_backward(scale: float, cache):
    """-> (dH, dA, edge-head gradients keyed w and b)."""
    h, g, adjacency, mask, params = cache
    d2 = h.shape[1]
    dg = scale * mask * 2.0 * (g - adjacency)
    dz = dg * g * (1.0 - g)
    # each node's logit gradient as the source (rows) and as the target (columns) of an edge
    dz_source, dz_target = dz.sum(axis=1), dz.sum(axis=0)
    grads = {
        "w": np.concatenate([h.T @ dz_source, h.T @ dz_target])[:, None],
        "b": np.array([dz.sum()]),
    }
    w = params["w"].ravel()
    return dz_source[:, None] * w[:d2] + dz_target[:, None] * w[d2:], -dg, grads


def acyclicity(adjacency: np.ndarray):
    """Trace-exponential penalty h, zero exactly when the weighted graph is acyclic.

    Returns (h, expm(A * A)); the exponential is what the gradient 2 A * expm(A * A)^T needs.
    """
    a = np.asarray(adjacency, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency entries must be finite")
    e = expm(a * a)
    return float(np.trace(e) - a.shape[0]), e


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


def _subparams(params: dict, prefix: str) -> dict:
    return {key[len(prefix):]: value for key, value in params.items() if key.startswith(prefix)}


def objective_gradients(
    params: dict,
    batch_metric: LaggedBatch,
    batch_log: LaggedBatch,
    attention: tuple[float, float],
    config: LearnerConfig,
    multiplier: float = 1.0,
    workspace: Workspace | None = None,
):
    """Objective value, per-term weighted breakdown, and analytic gradients.

    The decoder of each modality reads a_log * R_c[log] + a_metric * R_c[metric]
    plus its own R_s. The backward pass hands each term's weight to the term's
    backward function and sums the gradients reaching each representation and
    adjacency in a fixed order, so results are reproducible bit for bit.
    Intermediates are written into `workspace` (a fresh one when None); the
    returned values do not refer to it.
    """
    a_log, a_metric = attention
    if not np.isclose(a_log + a_metric, 1.0):
        raise ValueError("attention weights must sum to 1")
    batches = {"metric": batch_metric, "log": batch_log}
    weights = {"metric": a_metric, "log": a_log}
    n = batch_metric.history.shape[0]
    mask = 1.0 - np.eye(n)
    sub = {v: _subparams(params, f"{v}.") for v in MODALITIES}
    adj = {v: adjacency_from_free(params[f"{v}.adj"]) for v in MODALITIES}
    ws = Workspace() if workspace is None else workspace

    rep, enc = {}, {}
    for v in MODALITIES:
        rep[v], enc[v] = encode(batches[v], adj[v], sub[v], ws.scope(v))
    shape = rep["metric"][0].shape
    r_combined = np.multiply(rep["log"][0], weights["log"], out=ws.array("r_combined", shape))
    r_combined += np.multiply(rep["metric"][0], weights["metric"], out=ws.scratch(shape))

    # each term: (value, cache) per modality
    var, orth, edge, acyc = {}, {}, {}, {}
    for v in MODALITIES:
        _, r_s, h = rep[v]
        var[v] = loss_var(
            batches[v].target, r_combined, r_s, adj[v], _subparams(sub[v], "dec."), ws.scope(f"{v}.dec")
        )
        orth[v] = loss_orth(rep[v][0], r_s, ws.scope(f"{v}.orth"))
        edge[v] = loss_edge(h, adj[v], _subparams(sub[v], "edge."))
        acyc[v] = acyclicity(adj[v])
    node_term, node_cache = loss_node(rep["metric"][2], rep["log"][2], config.temperature)

    breakdown = {
        "var": config.lambda1 * sum(var[v][0] for v in MODALITIES),
        "orth": config.lambda2 * sum(orth[v][0] for v in MODALITIES),
        "node": config.lambda3 * node_term,
        "edge": config.lambda4 * sum(edge[v][0] for v in MODALITIES),
        "sparsity": config.lambda5 * sum(float(adj[v].sum()) for v in MODALITIES),
        "acyclicity": multiplier * sum(acyc[v][0] for v in MODALITIES),
        "h_metric": acyc["metric"][0],
        "h_log": acyc["log"][0],
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

    # ---- backward: the gradients reaching R_c accumulate in place
    grads: dict[str, np.ndarray] = {}
    d_r_c = {v: ws.array(f"{v}.d_r_c", shape) for v in MODALITIES}
    d_combined = ws.array("d_combined", shape)
    for accumulator in (*d_r_c.values(), d_combined):
        accumulator.fill(0.0)
    d_r_s, d_a_var = {}, {}
    for v in MODALITIES:
        d_r_s[v], d_a_var[v], dec_grads = loss_var_backward(config.lambda1, var[v][1])
        grads.update((f"{v}.dec.{key}", g) for key, g in dec_grads.items())
        d_combined += d_r_s[v]
    d_h_node = dict(zip(MODALITIES, loss_node_backward(config.lambda3, node_cache)))

    for v in MODALITIES:
        d_r_c[v] += np.multiply(d_combined, weights[v], out=ws.scratch(shape))
        d_r_c_orth, d_r_s_orth = loss_orth_backward(config.lambda2, orth[v][1])
        d_r_c[v] += d_r_c_orth
        d_r_s[v] += d_r_s_orth
        d_h_edge, d_a_edge, edge_grads = loss_edge_backward(config.lambda4, edge[v][1])
        grads.update((f"{v}.edge.{key}", g) for key, g in edge_grads.items())
        d_a_enc, enc_grads = encode_backward((d_r_c[v], d_r_s[v], d_h_node[v] + d_h_edge), enc[v])
        grads.update((f"{v}.{key}", g) for key, g in enc_grads.items())
        d_adj = (
            d_a_var[v]
            + d_a_edge
            + d_a_enc
            + config.lambda5
            + multiplier * acyc[v][1].T * 2.0 * adj[v]
        )
        # off the diagonal A is the sigmoid of the free weights
        grads[f"{v}.adj"] = d_adj * adj[v] * (1.0 - adj[v]) * mask

    return total, breakdown, {key: grads[key] for key in params}


# --- training ----------------------------------------------------------------------


def _zscore(values: np.ndarray):
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
        values[name], mean, std = _zscore(panel.values)
        standardization[name] = {"mean": mean, "std": std}

    batch_metric = build_lagged(values["metric"], config.p)
    batch_log = build_lagged(values["log"], config.p)
    n = batch_metric.history.shape[0]

    params = init_params(n, config)
    optimizer = Adam(params, lr=config.lr)
    workspace = Workspace()
    history: dict[str, list] = {}
    for epoch in range(config.epochs):
        multiplier = config.acyclicity_multiplier(epoch)
        total, breakdown, grads = objective_gradients(
            params, batch_metric, batch_log, attention, config, multiplier, workspace
        )
        if not np.isfinite(total):
            raise FloatingPointError(f"objective became non-finite at epoch {epoch}")
        for key, value in breakdown.items():
            history.setdefault(key, []).append(value)
        optimizer.step(grads)

    a_metric_final = adjacency_from_free(params["metric.adj"])
    a_log_final = adjacency_from_free(params["log.adj"])
    h_metric, _ = acyclicity(a_metric_final)
    h_log, _ = acyclicity(a_log_final)
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
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


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
