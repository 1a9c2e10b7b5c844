"""Joint causal structure learning over the metric and log panels.

Each modality owns a learnable adjacency (sigmoid of free weights, zero
diagonal) plus a pair of message-passing encoders producing shared
(modality-invariant) and private (modality-specific) representations. A
message-passing decoder predicts the next value of every series from its
p-lagged history and the attention-weighted shared representations of both
modalities; an orthogonality term keeps each modality's shared and private
representations apart; an entrywise L1 penalty and the trace-exponential
acyclicity penalty shape the adjacencies. MULAN's two other coupling terms,
an InfoNCE agreement between the modalities' entity representations and an
edge head that rebuilds each adjacency from them, are left out: weighted
zero, they left the root-cause ranking of every 6-entity benchmark incident
unchanged.

Both modalities run the same architecture, so the learner holds them as one
stack: every parameter block, batch, representation and gradient has a
leading modality axis (0 = metric, 1 = log), and each term runs once for both
modalities. The blocks are `adj` (2, n, n), `enc_c.*`, `enc_s.*` and `dec.*`.
Only one place mixes the slices: the decoders both read the attention-weighted
sum of the two shared representations. Every term also accepts arrays
without the leading axis, which is how the tests check one modality at a
time.

Adjacency orientation: A[i, j] is the weight of edge i -> j (i causes j), so
message passing aggregates each node's in-neighbors via A^T.

Each term of the objective is defined once, as a pair of functions: the
forward (`encode`, `loss_var`, `loss_orth`) returns (value, cache), and the
matching `*_backward(scale, cache)` turns the weight of that value in the
objective (for `encode`, the gradients of its outputs) into gradients of the
term's inputs and parameters. The values of the stacked terms are arrays over
the leading axes. `acyclicity` returns (h, expm(A * A)), which the gradient
reuses. `objective_gradients` composes these pairs, and is what both `fit`
and the finite-difference checks call; all gradients are hand-derived.

The arrays that grow with the series length (every (2, n, m, .) forward
cache and backward temporary) live in a `Workspace`, keyed by layer, and are
overwritten in place on every call. The caller owns the workspace: `fit`
creates one per run and passes it to every epoch, and a forward or
`objective_gradients` called without one creates a fresh one. What a forward
returns and caches refers to workspace arrays, so it is valid only until the
next call on the same workspace. What `objective_gradients` returns (the
total, the breakdown and the gradient arrays, which are parameter-sized and
allocated per call) stays valid after the next call.

Precision: every function computes in the dtype of the parameters and
batches it is given, and so does the workspace. `fit` z-scores the panels in
float64, then casts the lagged batch and the initial parameters to float32,
so training, every gradient and the learned adjacencies are float32; the
finite-difference checks call the same functions in float64. On one thread
the learner is bound by memory traffic and by numpy's tanh, not by
arithmetic: float32 halves the first, and a (41, 297, 16) tanh takes about
0.07 ms in float32 against 0.3-0.5 ms in float64. Constants stay Python
floats, since a numpy float64 scalar would silently upcast a float32 array.
Each product over the modality axis is one BLAS call per slice with the
slice's own strides, so the stack computes the same bits as two separate
modalities would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_open
from .nn import Adam, check_field_types, sigmoid
from .panel import ModalityPanel


# --- configuration and containers ---------------------------------------------

# a learned structure whose final acyclicity penalties exceed this is flagged
# non-converged
H_TOL = 1e-3


@dataclass
class LearnerConfig:
    p: int = 3
    d1: int = 16
    lambda1: float = 50.0
    lambda2: float = 1.0
    lambda5: float = 0.1
    lr: float = 0.02
    epochs: int = 600
    seed: int = 0
    acyclicity_every: int = 100

    def __post_init__(self):
        check_field_types(self)
        if self.p < 1:
            raise ValueError("lag order p must be >= 1")
        for name in ("lambda1", "lambda2", "lambda5"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.d1 < 1:
            raise ValueError("hidden dimension d1 must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.acyclicity_every < 1:
            raise ValueError("acyclicity_every must be >= 1")

    def acyclicity_multiplier(self, epoch: int) -> float:
        """The acyclicity weight at epoch: 1, doubled every acyclicity_every epochs."""
        return 2.0 ** (epoch // self.acyclicity_every)


@dataclass
class LaggedBatch:
    history: np.ndarray  # (..., n, m, p)
    target: np.ndarray  # (..., n, m)

    def __post_init__(self):
        if self.target.ndim < 2 or self.history.ndim != self.target.ndim + 1:
            raise ValueError("history must be (..., n, m, p) and target (..., n, m)")
        if self.history.shape[:-1] != self.target.shape:
            raise ValueError("history and target disagree on (..., n, m)")


@dataclass
class LearnedStructure:
    """The learned adjacencies and the state they came from.

    `params` holds the learner's parameter blocks (`adj`, `enc_c.w1`, ...),
    each stacked over a leading modality axis: [0] is the metric block and
    [1] the log block. `A_metric` and `A_log` are the two slices of the
    learned adjacency.
    """

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

    `array(name, shape, dtype)` makes an array on the first request and hands
    the same one out on every later request of that name, shape and dtype.
    `scope(name)` is a view of the same store whose names carry the prefix
    `name.`; `scratch(shape, dtype)` is one temporary per shape shared by every
    scope, valid until the next scratch request of that shape.
    """

    def __init__(self, _store: dict | None = None, _prefix: str = ""):
        self._store = {} if _store is None else _store
        self._prefix = _prefix

    def scope(self, name: str) -> Workspace:
        return Workspace(self._store, f"{self._prefix}{name}.")

    def array(self, name: str, shape: tuple, dtype) -> np.ndarray:
        return self._get(self._prefix + name, shape, dtype)

    def scratch(self, shape: tuple, dtype) -> np.ndarray:
        return self._get(f"scratch{shape}", shape, dtype)

    def _get(self, key: str, shape: tuple, dtype) -> np.ndarray:
        arr = self._store.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = self._store[key] = np.empty(shape, dtype)
        return arr


def adjacency_from_free(free_weights: np.ndarray) -> np.ndarray:
    a = sigmoid(free_weights)
    a = a * (1.0 - np.eye(a.shape[-1], dtype=a.dtype))
    return a


def build_lagged(values, p: int) -> LaggedBatch:
    """Slice (..., n, T) series into p-lagged histories and next-step targets (m = T - p)."""
    values = np.asarray(values, dtype=float)
    t_len = values.shape[-1]
    if t_len <= p:
        raise ValueError(f"series length T={t_len} must exceed the lag order p={p}")
    m = t_len - p
    history = sliding_window_view(values, p, axis=-1)[..., :m, :].copy()
    target = values[..., p:].copy()
    return LaggedBatch(history=history, target=target)


# --- message passing primitives -------------------------------------------------


def _by_node(x):
    """(..., n, m, f) -> (..., n, m * f): one row per node."""
    return x.reshape(x.shape[:-2] + (-1,))


def _linear(x, w, out):
    """out = x @ w over the last axis of x, as one 2-D product per leading index of w."""
    lead = w.shape[:-2]
    np.matmul(x.reshape(lead + (-1, x.shape[-1])), w, out=out.reshape(lead + (-1, w.shape[-1])))
    return out


def _mp_forward(x, a, w, b, activation, ws):
    """act(x @ w[:f] + agg @ w[f:] + b), where agg[i] = sum_j A[j, i] x[j] aggregates i's causes."""
    f = x.shape[-1]
    agg = ws.array("agg", x.shape, x.dtype)
    np.matmul(a.swapaxes(-1, -2), _by_node(x), out=_by_node(agg))
    out = _linear(x, w[..., :f, :], ws.array("out", x.shape[:-1] + w.shape[-1:], x.dtype))
    out += _linear(agg, w[..., f:, :], ws.scratch(out.shape, out.dtype))
    out += b[..., None, None, :]
    if activation == "tanh":
        np.tanh(out, out=out)
    return out, (x, a, agg, out, activation, ws)


def _mp_backward(dout, cache, w, input_grad=True):
    """-> (dx, dA, dw, db); dx is None when input_grad is false."""
    x, a, agg, out, activation, ws = cache
    f = x.shape[-1]
    if activation == "tanh":
        dpre = np.multiply(out, out, out=ws.array("dpre", out.shape, out.dtype))
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dout
    else:
        dpre = dout
    lead = w.shape[:-2]
    dpre_flat = dpre.reshape(lead + (-1, dpre.shape[-1]))
    dw = np.empty(w.shape, dpre.dtype)
    np.matmul(x.reshape(lead + (-1, f)).swapaxes(-1, -2), dpre_flat, out=dw[..., :f, :])
    np.matmul(agg.reshape(lead + (-1, f)).swapaxes(-1, -2), dpre_flat, out=dw[..., f:, :])
    # one BLAS product; numpy's sum over the two leading axes is several times slower
    db = np.ones(dpre_flat.shape[-2], dpre.dtype) @ dpre_flat
    dagg = _linear(dpre, w[..., f:, :].swapaxes(-1, -2), ws.array("dagg", x.shape, dpre.dtype))
    da = _by_node(x) @ _by_node(dagg).swapaxes(-1, -2)
    if not input_grad:
        return None, da, dw, db
    dx = _linear(dpre, w[..., :f, :].swapaxes(-1, -2), ws.array("dx", x.shape, dpre.dtype))
    dx_agg = ws.scratch(x.shape, dpre.dtype)
    np.matmul(a, _by_node(dagg), out=_by_node(dx_agg))
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


# --- objective terms: each forward returns (value, cache) ---------------------------


def encode(
    batch: LaggedBatch, adjacency: np.ndarray, params: dict, workspace: Workspace | None = None
):
    """Run both encoders.

    Reads the `enc_c.*` and `enc_s.*` blocks of `params`. Returns
    ((R_c, R_s), cache): shared and private representation.
    """
    ws = Workspace() if workspace is None else workspace
    r_c, c_cache = _mp2_forward(batch.history, adjacency, params, "enc_c.", "tanh", ws.scope("enc_c"))
    r_s, s_cache = _mp2_forward(batch.history, adjacency, params, "enc_s.", "tanh", ws.scope("enc_s"))
    return (r_c, r_s), (c_cache, s_cache, params)


def encode_backward(d_out, cache):
    """d_out = (dR_c, dR_s) -> (dA, parameter gradients keyed like encode's blocks)."""
    d_r_c, d_r_s = d_out
    c_cache, s_cache, params = cache
    grads: dict[str, np.ndarray] = {}
    # the encoders' input is the fixed lagged history: no gradient flows into it
    _, da_c = _mp2_backward(d_r_c, c_cache, params, grads, "enc_c.", input_grad=False)
    _, da_s = _mp2_backward(d_r_s, s_cache, params, grads, "enc_s.", input_grad=False)
    return da_c + da_s, grads


def loss_var(
    target: np.ndarray,
    r_c: np.ndarray,
    r_s: np.ndarray,
    adjacency: np.ndarray,
    params: dict,
    workspace: Workspace | None = None,
):
    """Squared prediction error of the message-passing decoder (`dec.*` blocks) on R_c + R_s.

    R_c may lack the leading axes of R_s: the stacked decoders read one R_c.
    """
    ws = Workspace() if workspace is None else workspace
    x = np.add(r_c, r_s, out=ws.array("input", r_s.shape, r_s.dtype))
    out, caches = _mp2_forward(x, adjacency, params, "dec.", "linear", ws)
    out = out[..., 0]
    return ((target - out) ** 2).sum(axis=(-2, -1)), (target, out, caches, params)


def loss_var_backward(scale: float, cache):
    """-> (dR, dA, decoder gradients); dR is the gradient for R_c and for R_s alike."""
    target, out, caches, params = cache
    grads: dict[str, np.ndarray] = {}
    d_r, d_a = _mp2_backward((scale * 2.0 * (out - target))[..., None], caches, params, grads, "dec.")
    return d_r, d_a, grads


def loss_orth(r_c: np.ndarray, r_s: np.ndarray, workspace: Workspace | None = None):
    """Sum over entities of the squared Frobenius cross-product of shared/private."""
    if r_c.shape != r_s.shape:
        raise ValueError("shared and private representations must share a shape")
    cross = np.matmul(r_s.swapaxes(-1, -2), r_c)
    ws = Workspace() if workspace is None else workspace
    return (cross**2).sum(axis=(-3, -2, -1)), (r_c, r_s, cross, ws)


def loss_orth_backward(scale: float, cache):
    """-> (dR_c, dR_s)."""
    r_c, r_s, cross, ws = cache
    d_r_c = np.matmul(r_s, cross, out=ws.array("d_r_c", r_c.shape, cross.dtype))
    d_r_c *= scale * 2.0
    d_r_s = np.matmul(r_c, cross.swapaxes(-1, -2), out=ws.array("d_r_s", r_s.shape, cross.dtype))
    d_r_s *= scale * 2.0
    return d_r_c, d_r_s


# Pade(13) coefficients b_0..b_13, and theta_13: the largest 1-norm for which the
# unscaled approximant's backward error stays below double precision's unit
# roundoff (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each (n, n) matrix of a (..., n, n) stack, in a's dtype.

    Pade(13) approximant with scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26(4), 2005): each matrix is scaled by its own 2^-s, the least
    that brings its 1-norm to theta_13 or below, and its approximant is
    squared s times, so one matrix of a stack never changes another's rounding.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    x = a.reshape(-1, n, n)
    # s = ceil(log2(norm / theta_13)), at least 0; frexp gives norm / theta_13 = m 2^e, m in [0.5, 1)
    mantissa, exponent = np.frexp(np.abs(x).sum(axis=-2).max(axis=-1) / _THETA13)
    squarings = np.maximum(exponent - (mantissa == 0.5), 0)
    x = x * np.ldexp(np.ones((), a.dtype), -squarings)[:, None, None]
    b = _PADE13
    eye = np.eye(n, dtype=a.dtype)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    # (V - U)^-1 (V + U), written so that an exact zero input gives exactly I
    e = np.linalg.solve(v - u, 2.0 * u)
    e += eye
    for k in range(int(squarings.max(initial=0))):
        todo = squarings > k
        e[todo] = e[todo] @ e[todo]
    return e.reshape(a.shape)


def acyclicity(adjacency: np.ndarray):
    """Trace-exponential penalty h, zero exactly when the weighted graph is acyclic.

    Returns (h, expm(A * A)), one h per leading index; the exponential is what
    the gradient 2 A * expm(A * A)^T needs. Both are computed in the dtype of
    the adjacency.
    """
    a = np.asarray(adjacency)
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency entries must be finite")
    e = expm(a * a)
    return np.trace(e, axis1=-2, axis2=-1) - a.shape[-1], e


# --- full objective ---------------------------------------------------------------


def init_params(n: int, config: LearnerConfig) -> dict:
    """Every parameter block, stacked over the modality axis.

    The metric blocks are drawn first, then the log blocks, each in the order
    below, so a seed gives the same values as two modalities drawn one after
    the other.
    """
    rng = np.random.default_rng(config.seed)
    d1, p = config.d1, config.p

    def draw() -> dict:
        block = {"adj": 0.1 * rng.standard_normal((n, n))}
        for enc in ("enc_c", "enc_s"):
            block[f"{enc}.w1"] = rng.standard_normal((2 * p, d1)) / np.sqrt(2 * p)
            block[f"{enc}.b1"] = np.zeros(d1)
            block[f"{enc}.w2"] = rng.standard_normal((2 * d1, d1)) / np.sqrt(2 * d1)
            block[f"{enc}.b2"] = np.zeros(d1)
        # the removed entity MLP (d1 -> 16 -> 16) and edge head (32 -> 1) drew
        # here and after dec.b2; drawing past their values keeps each seed's
        # surviving blocks as they were, and a learner this close to chance
        # reshuffles its rankings when any initial value moves
        rng.standard_normal(d1 * 16 + 16 * 16)
        block["dec.w1"] = rng.standard_normal((2 * d1, d1)) / np.sqrt(2 * d1)
        block["dec.b1"] = np.zeros(d1)
        block["dec.w2"] = rng.standard_normal((2 * d1, 1)) / np.sqrt(2 * d1)
        block["dec.b2"] = np.zeros(1)
        rng.standard_normal(32)
        return block

    metric = draw()
    log = draw()
    return {key: np.stack([metric[key], log[key]]) for key in metric}


def objective_gradients(
    params: dict,
    batch: LaggedBatch,
    attention: tuple[float, float],
    config: LearnerConfig,
    multiplier: float = 1.0,
    workspace: Workspace | None = None,
):
    """Objective value, per-term weighted breakdown, and analytic gradients.

    `params` and `batch` are stacked over the modality axis. Both decoders
    read a_metric * R_c[metric] + a_log * R_c[log] plus their own R_s. The
    backward pass hands each term's weight to the term's backward function
    and sums the gradients reaching each representation and adjacency in a
    fixed order, so results are reproducible bit for bit. Intermediates are
    written into `workspace` (a fresh one when None); the returned values do
    not refer to it.
    """
    a_log, a_metric = attention
    if not np.isclose(a_log + a_metric, 1.0):
        raise ValueError("attention weights must sum to 1")
    adj = adjacency_from_free(params["adj"])
    mask = 1.0 - np.eye(adj.shape[-1], dtype=adj.dtype)
    ws = Workspace() if workspace is None else workspace

    (r_c, r_s), enc_cache = encode(batch, adj, params, ws)
    shape, dtype = r_c.shape, r_c.dtype
    # both decoders read the one attention-weighted sum of the shared representations
    weights = np.array([a_metric, a_log], dtype)[:, None, None, None]
    weighted = np.multiply(r_c, weights, out=ws.scratch(shape, dtype))
    r_combined = np.add(weighted[0], weighted[1], out=ws.array("r_combined", shape[1:], dtype))

    var, var_cache = loss_var(batch.target, r_combined, r_s, adj, params, ws.scope("dec"))
    orth, orth_cache = loss_orth(r_c, r_s, ws.scope("orth"))
    h_acyc, expm_sq = acyclicity(adj)

    # a term's two modality values are added as Python floats, metric first
    h_metric, h_log = h_acyc.tolist()
    breakdown = {
        "var": config.lambda1 * sum(var.tolist()),
        "orth": config.lambda2 * sum(orth.tolist()),
        "sparsity": config.lambda5 * sum(adj.sum(axis=(-2, -1)).tolist()),
        "acyclicity": multiplier * sum(h_acyc.tolist()),
        "h_metric": h_metric,
        "h_log": h_log,
        "multiplier": multiplier,
    }
    total = sum(breakdown[term] for term in ("var", "orth", "sparsity", "acyclicity"))
    breakdown["total"] = total

    # ---- backward: the gradients reaching R_c accumulate in place
    grads: dict[str, np.ndarray] = {}
    d_r_s, d_a_var, dec_grads = loss_var_backward(config.lambda1, var_cache)
    grads.update(dec_grads)
    d_combined = np.add(d_r_s[0], d_r_s[1], out=ws.array("d_combined", shape[1:], dtype))
    d_r_c = np.multiply(d_combined, weights, out=ws.array("d_r_c", shape, dtype))
    d_r_c_orth, d_r_s_orth = loss_orth_backward(config.lambda2, orth_cache)
    d_r_c += d_r_c_orth
    d_r_s += d_r_s_orth
    d_a_enc, enc_grads = encode_backward((d_r_c, d_r_s), enc_cache)
    grads.update(enc_grads)
    d_a_acyc = multiplier * expm_sq.swapaxes(-1, -2) * 2.0 * adj
    d_adj = d_a_var + d_a_enc + config.lambda5 + d_a_acyc
    # off the diagonal A is the sigmoid of the free weights
    grads["adj"] = d_adj * adj * (1.0 - adj) * mask

    return total, breakdown, {key: grads[key] for key in params}


# --- training ----------------------------------------------------------------------


def _zscore(values: np.ndarray):
    mean = values.mean(axis=-1, keepdims=True)
    std = values.std(axis=-1, keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return (values - mean) / std, mean[..., 0], std[..., 0]


def fit(
    metric_panel: ModalityPanel,
    log_panel: ModalityPanel,
    attention: tuple[float, float],
    config: LearnerConfig,
) -> LearnedStructure:
    """Full-batch Adam on the joint objective; deterministic for a fixed seed.

    attention is (a_log, a_metric) and must sum to 1. The two panels must
    name the same nodes in the same order, since row i of each is entity i of
    both graphs. Rows are z-scored before slicing into lagged batches
    (recorded in the result) so heterogeneous scales do not dominate the
    shared decoder. The z-scoring runs in float64 and training in float32, so
    the parameters and adjacencies of the result are float32. The acyclicity
    multiplier doubles every config.acyclicity_every epochs; if the final
    penalties exceed H_TOL the structure is flagged non-converged.
    """
    if metric_panel.values.shape != log_panel.values.shape:
        raise ValueError("metric and log panels must share n and T")
    if metric_panel.node_names != log_panel.node_names:
        raise ValueError(
            "metric and log panels must list the same nodes in the same order: "
            f"{metric_panel.node_names} != {log_panel.node_names}"
        )
    if metric_panel.n_timesteps < 2 * config.p:
        raise ValueError("panel length must be at least twice the lag order")

    values, mean, std = _zscore(np.stack([metric_panel.values, log_panel.values]))
    standardization = {
        "metric": {"mean": mean[0], "std": std[0]},
        "log": {"mean": mean[1], "std": std[1]},
    }
    lagged = build_lagged(values, config.p)
    # training runs in float32: see the module docstring
    batch = LaggedBatch(lagged.history.astype(np.float32), lagged.target.astype(np.float32))
    n = batch.target.shape[-2]

    params = {key: value.astype(np.float32) for key, value in init_params(n, config).items()}
    optimizer = Adam(params, lr=config.lr)
    workspace = Workspace()
    history: dict[str, list] = {}
    for epoch in range(config.epochs):
        multiplier = config.acyclicity_multiplier(epoch)
        total, breakdown, grads = objective_gradients(
            params, batch, attention, config, multiplier, workspace
        )
        if not np.isfinite(total):
            raise FloatingPointError(f"objective became non-finite at epoch {epoch}")
        for key, value in breakdown.items():
            history.setdefault(key, []).append(value)
        optimizer.step(grads)

    adjacency = adjacency_from_free(params["adj"])
    h_metric, h_log = acyclicity(adjacency)[0].tolist()
    return LearnedStructure(
        A_metric=adjacency[0],
        A_log=adjacency[1],
        params=params,
        loss_history=history,
        h_metric=h_metric,
        h_log=h_log,
        converged=(h_metric <= H_TOL and h_log <= H_TOL),
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
    """Write the structure as one .npz.

    `param:<block>` holds a parameter block stacked over the modality axis
    ([0] metric, [1] log), `A_metric`/`A_log` the adjacencies,
    `history:<term>` the per-epoch breakdown, `standardization:<modality>:<stat>`
    the z-scoring, and `meta` the config, node names and final penalties as JSON.
    """
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
