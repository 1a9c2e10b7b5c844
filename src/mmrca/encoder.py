"""Regression-trained log sequence encoder, and the log series it yields.

Windows of log templates become token sequences ([CLS], then each template
token followed by its quantized frequency token). A small bidirectional
transformer is trained to regress the golden-signal anomaly label of each
window from the [CLS] position. Its sigmoid head (LogSequenceEncoder.score)
maps a [CLS] state to an anomaly score in (0, 1), and the score of each
(entity, window) cell is the entity's log series (reduce_to_series). When
every window carries the same label there is nothing to regress, and
log_series builds no encoder: it scores every cell exactly 0.5, the score
that an untrained encoder's zero head gives any [CLS] state, and tokenizes
nothing. The result is a constant series that says the logs hold no
evidence.

Training and embedding run the network once per distinct (token sequence,
label) row, in length groups: batches whose sequences all have one token
length, shortest first. Nothing is padded, so no position is masked, and a
row's forward pass depends only on its own tokens. Identical windows share
one result, bit-identical to running each window alone. Training stays
full-batch: every length group adds into one gradient, normalised by the
total weight of all rows, and Adam steps once an epoch, so the loss is the
plain mean over all windows.

The head reads only the final [CLS] state, so the last layer runs at the
[CLS] position alone: it computes keys and values at every position, because
[CLS] attends to all of them, but its query, attention row, output
projection, layer norms and feed-forward block only at position 0, and the
backward pass follows the same rows. Every earlier layer runs at every
position. A sequence of l tokens thus costs the last layer two d x d
projections of l rows plus one row of the rest, not the whole layer at l rows.

log_series, the encode stage's one call, tokenizes every cell of a
logs.WindowTable into one flat token table and groups its distinct rows once
(group_sequences). A window without events holds no template in the table;
tokenize alone gives it the empty token.

The network is plain numpy with hand-derived gradients so that training is
bit-deterministic and the analytic gradients can be checked against finite
differences.

Precision: every layer computes in the dtype of the parameters it holds. A
LogSequenceEncoder is built in float64, which is what the finite-difference
checks run, and train_log_encoder casts the parameters, the targets and the
weights to float32 once the seed's draws and the head bias are set. Single
precision halves the memory traffic and numpy's float32 tanh is several times
faster than its float64 one; on one thread the encoder is bound by those, not
by arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logs import WindowTable
from .nn import Adam, gelu, gelu_grad, layer_norm, layer_norm_backward, sigmoid, softmax
from .panel import ModalityPanel

# token id 0 is reserved (tok_emb keeps its row) but never emitted: nothing is padded
CLS_TOKEN = 1
EMPTY_TOKEN = 2  # stands for the template of a window without events
N_RESERVED = 3

FFN_MULT = 2  # feed-forward width relative to d_model
LABEL_SMOOTHING = 0.01  # keeps regression targets off the sigmoid boundary


@dataclass
class EncoderConfig:
    """The encoder's settings, which pipeline.load_config checks; building one checks nothing."""

    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_len: int = 128
    lr: float = 0.03
    epochs: int = 150
    freq_buckets: int = 16
    seed: int = 0


def freq_bucket(frequency, n_buckets: int):
    """Log2 quantization of a positive int or int array; bucket 0 is reserved for the
    empty-window marker.

    Bucket b >= 1 holds the frequencies in [2**(b-1), 2**b), so a frequency's
    bucket is its bit length capped at the top bucket: the count of the powers
    2**0 .. 2**(n_buckets - 2) that it reaches, exact for every int64.
    """
    frequency = np.asarray(frequency, dtype=np.int64)
    powers = 2 ** np.arange(min(n_buckets - 1, 63), dtype=np.int64)
    return np.searchsorted(powers, frequency, side="right")


def n_tokens(vocab_size: int, config: EncoderConfig) -> int:
    """The number of token ids over vocab_size templates: the reserved tokens, the
    frequency buckets and the templates. tok_emb has one row per token id."""
    return N_RESERVED + config.freq_buckets + vocab_size


def tokenize(windows: WindowTable, config: EncoderConfig):
    """The token sequence of every cell of the table, as one flat table.

    Returns (tokens, offsets, truncated): cell c's sequence is the int64 ids
    tokens[offsets[c]:offsets[c + 1]], and truncated[c] says whether it was
    cut. A cell's sequence is [CLS] and then, per template in the cell's
    order, the template token and its frequency's bucket token. A cell
    without events counts as one pair: the empty token and bucket 0. Pairs
    past (max_len - 1) // 2 are cut. A template's token is its id past the
    reserved and bucket tokens; window_sequences keeps every id within the
    vocabulary, so every token is below n_tokens.
    """
    templates, offsets = windows.templates, windows.offsets
    buckets = freq_bucket(windows.frequencies, config.freq_buckets)
    lengths = np.diff(offsets)
    pairs = np.maximum(lengths, 1)

    # the kept pairs of each cell, placed after its [CLS] token
    kept = np.minimum(pairs, (config.max_len - 1) // 2)
    rank = np.arange(len(templates)) - np.repeat(offsets[:-1], lengths)
    keep = rank < np.repeat(kept, lengths)
    starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(1 + 2 * kept, out=starts[1:])
    tokens = np.full(starts[-1], CLS_TOKEN, dtype=np.int64)
    slots = np.repeat(starts[:-1], lengths)[keep] + 1 + 2 * rank[keep]
    tokens[slots] = N_RESERVED + config.freq_buckets + templates[keep]
    tokens[slots + 1] = N_RESERVED + buckets[keep]
    empty = starts[:-1][(lengths == 0) & (kept > 0)] + 1
    tokens[empty] = EMPTY_TOKEN
    tokens[empty + 1] = N_RESERVED  # bucket 0
    return tokens, starts, pairs > kept


class SequenceGroups(NamedTuple):
    """The distinct rows of a token table, numbered in first-seen order.

    rows[c] is cell c's row, counts[r] the number of cells of row r and
    first[r] its first cell. by_length holds, per token length in ascending
    order, the rows of that length in first-seen order and their tokens.
    """

    rows: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    by_length: list[tuple[np.ndarray, np.ndarray]]


def group_sequences(tokens: np.ndarray, offsets: np.ndarray, labels: np.ndarray) -> SequenceGroups:
    """Group the cells of a token table by (tokens, label); labels holds one label per cell."""
    flat, ends = tokens.tobytes(), (offsets * tokens.itemsize).tolist()
    keys = zip([flat[a:b] for a, b in zip(ends[:-1], ends[1:])], labels.tolist(), strict=True)
    row_of: dict = {}
    rows = np.array([row_of.setdefault(key, len(row_of)) for key in keys], dtype=np.int64)
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    lengths = np.diff(offsets)[first]
    by_length = []
    # not np.unique(lengths): without an index or count to return, numpy 2.4's
    # np.unique imports numpy.ma, about 25 ms and 1 MB, which nothing else loads
    for length in sorted(set(lengths.tolist())):
        members = np.flatnonzero(lengths == length)
        by_length.append((members, tokens[offsets[first[members]][:, None] + np.arange(length)]))
    return SequenceGroups(rows, counts, first, by_length)


class LogSequenceEncoder:
    """Bidirectional transformer with a sigmoid regression head on [CLS]."""

    def __init__(self, config: EncoderConfig, vocab_size: int):
        self.config = config
        self.vocab_size = vocab_size
        self.history: list[float] = []
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        # content-rich initialization: embeddings and value/feed-forward paths
        # start at full scale so the [CLS] state varies strongly with window
        # content from the first step, while small query/key weights keep the
        # attention near uniform. The rare anomalous windows then remain
        # linearly readable instead of drowning in an almost-constant [CLS].
        p: dict[str, np.ndarray] = {
            "tok_emb": 0.5 * rng.standard_normal((n_tokens(vocab_size, config), d)),
            "pos_emb": 0.5 * rng.standard_normal((config.max_len, d)),
            "head_w": np.zeros((d, 1)),
            "head_b": np.zeros(1),
        }
        for layer in range(config.n_layers):
            pre = f"l{layer}."
            for name in ("wq", "wk"):
                p[pre + name] = 0.02 * rng.standard_normal((d, d))
                p[pre + name.replace("w", "b")] = np.zeros(d)
            for name in ("wv", "wo"):
                p[pre + name] = rng.standard_normal((d, d)) / np.sqrt(d)
                p[pre + name.replace("w", "b")] = np.zeros(d)
            p[pre + "wf1"] = rng.standard_normal((d, FFN_MULT * d)) / np.sqrt(d)
            p[pre + "bf1"] = np.zeros(FFN_MULT * d)
            p[pre + "wf2"] = rng.standard_normal((FFN_MULT * d, d)) / np.sqrt(FFN_MULT * d)
            p[pre + "bf2"] = np.zeros(d)
            for name in ("ln1_g", "ln2_g"):
                p[pre + name] = np.ones(d)
            for name in ("ln1_b", "ln2_b"):
                p[pre + name] = np.zeros(d)
        self.params = p

    # -- forward --------------------------------------------------------------

    def _forward(self, ids: np.ndarray):
        """[CLS] hidden states of a batch of sequences that all have one length, and the caches.

        Every layer but the last runs at every position. The head reads only
        the [CLS] state, so the last layer computes keys and values at every
        position but its query, attention row, output projection, layer norms
        and feed-forward block only at position 0: each layer computes its
        first lq query rows, lq = l on every layer but the last and 1 on it.
        The result has shape (b, 1, d_model).
        """
        p = self.params
        cfg = self.config
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        b, l = ids.shape
        x = p["tok_emb"][ids] + p["pos_emb"][:l][None, :, :]

        def heads(m):
            return m.reshape(b, -1, n_heads, d_head).transpose(0, 2, 1, 3)

        caches = []
        for layer in range(cfg.n_layers):
            pre = f"l{layer}."
            lq = 1 if layer == cfg.n_layers - 1 else l
            xq = x[:, :lq]
            q = heads(xq @ p[pre + "wq"] + p[pre + "bq"])
            k = heads(x @ p[pre + "wk"] + p[pre + "bk"])
            v = heads(x @ p[pre + "wv"] + p[pre + "bv"])
            attn = softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(d_head), axis=-1)
            ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, lq, cfg.d_model)
            att_out = ctx @ p[pre + "wo"] + p[pre + "bo"]
            r1 = xq + att_out
            h1, ln1_cache = layer_norm(r1, p[pre + "ln1_g"], p[pre + "ln1_b"])
            u = h1 @ p[pre + "wf1"] + p[pre + "bf1"]
            a, gelu_t = gelu(u)
            f_out = a @ p[pre + "wf2"] + p[pre + "bf2"]
            r2 = h1 + f_out
            out, ln2_cache = layer_norm(r2, p[pre + "ln2_g"], p[pre + "ln2_b"])
            caches.append(
                {"x": x, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx,
                 "h1": h1, "u": u, "a": a, "gelu_t": gelu_t, "ln1": ln1_cache, "ln2": ln2_cache}
            )
            x = out
        return x, caches

    def score(self, cls: np.ndarray) -> np.ndarray:
        """Anomaly score of each [CLS] row: sigmoid(cls @ head_w + head_b), shape (n,)."""
        return sigmoid((cls @ self.params["head_w"]).ravel() + self.params["head_b"][0])

    # -- loss and gradients -----------------------------------------------------

    def loss_and_grads(self, groups):
        """Weighted mean squared error over length groups, and its gradients.

        groups holds (ids, labels, weights) per token length. weights lets
        identical windows be collapsed into one row with a count. Every group
        runs forward and backward once and adds into one gradient dict, and
        the loss and gradients are normalised by the total weight of all rows,
        so the loss equals the plain mean over the expanded windows.
        """
        p = self.params
        total_weight = sum(weights.sum() for _, _, weights in groups)
        grads = {key: np.zeros_like(val) for key, val in p.items()}
        weighted_sse = 0.0
        for ids, labels, weights in groups:
            hidden, caches = self._forward(ids)
            cls = hidden[:, 0, :]
            pred = self.score(cls)
            residual = pred - labels
            weighted_sse += (weights * residual**2).sum()
            dlogits = 2.0 * weights * residual / total_weight * pred * (1.0 - pred)
            grads["head_w"] += cls.T @ dlogits[:, None]
            grads["head_b"] += dlogits.sum()
            dx = (dlogits[:, None] * p["head_w"].ravel()[None, :])[:, None, :]
            self._backward(ids, caches, dx, grads)
        return float(weighted_sse / total_weight), grads

    def _backward(self, ids: np.ndarray, caches, dx: np.ndarray, grads: dict) -> None:
        """Add to grads the parameter gradients of one length group, given d(loss)/d(hidden).

        dx has the shape of _forward's result, (b, 1, d_model), and each layer
        takes the query row count of its forward pass from its cache.
        """
        p = self.params
        cfg = self.config
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        b, l = ids.shape
        ones = np.ones(b * l, dtype=dx.dtype)

        def rows(m):
            return m.reshape(-1, m.shape[-1])

        def position_sum(m):
            # a bias gradient sums over every position: one BLAS product is faster
            # than numpy's sum over the two leading axes
            m = rows(m)
            return ones[: len(m)] @ m

        def merge(m):
            return m.transpose(0, 2, 1, 3).reshape(b, -1, cfg.d_model)

        for layer in reversed(range(cfg.n_layers)):
            pre = f"l{layer}."
            c = caches[layer]
            lq = c["h1"].shape[1]
            dr2, dg, db = layer_norm_backward(dx, c["ln2"])
            grads[pre + "ln2_g"] += dg
            grads[pre + "ln2_b"] += db
            dh1 = dr2.copy()
            df_out = dr2
            da = df_out @ p[pre + "wf2"].T
            grads[pre + "wf2"] += rows(c["a"]).T @ rows(df_out)
            grads[pre + "bf2"] += position_sum(df_out)
            du = da * gelu_grad(c["u"], c["gelu_t"])
            grads[pre + "wf1"] += rows(c["h1"]).T @ rows(du)
            grads[pre + "bf1"] += position_sum(du)
            dh1 += du @ p[pre + "wf1"].T
            dr1, dg, db = layer_norm_backward(dh1, c["ln1"])
            grads[pre + "ln1_g"] += dg
            grads[pre + "ln1_b"] += db
            datt_out = dr1
            dctx = datt_out @ p[pre + "wo"].T
            grads[pre + "wo"] += rows(c["ctx"]).T @ rows(datt_out)
            grads[pre + "bo"] += position_sum(datt_out)
            dctx = dctx.reshape(b, lq, n_heads, d_head).transpose(0, 2, 1, 3)
            dattn = dctx @ c["v"].transpose(0, 1, 3, 2)
            dv = c["attn"].transpose(0, 1, 3, 2) @ dctx
            attn = c["attn"]
            dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
            dscores /= math.sqrt(d_head)
            dq = dscores @ c["k"]
            dk = dscores.transpose(0, 1, 3, 2) @ c["q"]

            # the query reads the first lq positions, the key and value all l
            x_in = c["x"]
            dx = np.zeros_like(x_in)
            dx[:, :lq] = dr1
            for name, dm in (("wq", merge(dq)), ("wk", merge(dk)), ("wv", merge(dv))):
                m = dm.shape[1]
                grads[pre + name] += rows(x_in[:, :m]).T @ rows(dm)
                grads[pre + name.replace("w", "b")] += position_sum(dm)
                dx[:, :m] += dm @ p[pre + name].T

        np.add.at(grads["tok_emb"], ids, dx)
        grads["pos_emb"][:l] += dx.sum(axis=0)


def train_log_encoder(
    groups: SequenceGroups, labels: np.ndarray, config: EncoderConfig, vocab_size: int
) -> LogSequenceEncoder:
    """Fit the anomaly-score regression by full-batch Adam; deterministic per seed.

    labels holds each window's label, and groups the windows' token
    sequences over vocab_size templates and config, grouped by (tokens,
    label) with group_sequences. Each distinct row is one weighted row of the
    loss, and the rows run in length groups: ascending token length,
    first-seen order within a length. Each epoch runs every group forward and
    backward into one gradient and takes one Adam step, so the per-epoch loss
    still equals the plain mean over all windows. Training runs in float32:
    the returned encoder's parameters are float32.
    """
    labels = np.asarray(labels, dtype=float)
    row_labels = labels[groups.first]
    encoder = LogSequenceEncoder(config, vocab_size)
    weights = groups.counts.astype(float)

    # smoothed targets keep the optimum away from the sigmoid boundary, where
    # a vanished derivative would otherwise make collapsed predictions
    # absorbing
    targets = row_labels * (1.0 - 2.0 * LABEL_SMOOTHING) + LABEL_SMOOTHING

    # the head starts at the label base rate with zero weights, so descent
    # first grows the head along whatever feature direction separates the
    # labels before touching the features themselves
    base_rate = np.clip((weights * targets).sum() / weights.sum(), 0.05, 0.95)
    encoder.params["head_b"][0] = np.log(base_rate / (1.0 - base_rate))

    encoder.params = {key: value.astype(np.float32) for key, value in encoder.params.items()}
    targets, weights = targets.astype(np.float32), weights.astype(np.float32)
    by_length = [(ids, targets[rows], weights[rows]) for rows, ids in groups.by_length]
    optimizer = Adam(encoder.params, lr=config.lr)
    for epoch in range(config.epochs):
        loss, grads = encoder.loss_and_grads(by_length)
        if not np.isfinite(loss):
            raise FloatingPointError(f"training loss became non-finite at epoch {epoch}")
        encoder.history.append(loss)
        optimizer.step(grads)
    return encoder


def embed_windows(encoder: LogSequenceEncoder, groups: SequenceGroups) -> np.ndarray:
    """[CLS] hidden state per window, given the windows' rows from group_sequences.

    Shape (n_windows, d_model), no gradients kept, in the dtype of the
    parameters. Each distinct row runs once, in length groups, so a row
    depends only on its own tokens, and the windows that share a row share
    its state, bit-identical to running each window alone.
    """
    cls = np.empty((len(groups.counts), encoder.config.d_model), encoder.params["tok_emb"].dtype)
    for rows, ids in groups.by_length:
        cls[rows] = encoder._forward(ids)[0][:, 0, :]
    return cls[groups.rows]


# --- the log series --------------------------------------------------------------


def log_series(
    windows: WindowTable, vocab_size: int, config: EncoderConfig, kpi: np.ndarray,
    entity_names: list[str],
) -> tuple[ModalityPanel, dict]:
    """Score every window of the table and place the scores into the log panel.

    The encoder trains on the windows' labels. When every window has one label
    the windows are not tokenized, no encoder is built and every cell scores
    0.5 (see the module docstring). Returns the panel and the training record
    that encoder_manifest.json holds: epochs_run and final_loss (0 and None
    without an encoder) and, when an encoder trained, diagnostics, which count
    the truncated windows and the distinct (token sequence, label) rows.
    """
    if len(set(windows.labels.tolist())) <= 1:
        scores = np.full(windows.n_cells, 0.5)
        training = {"epochs_run": 0, "final_loss": None}
        return reduce_to_series(scores, windows, kpi, entity_names), training
    tokens, offsets, truncated = tokenize(windows, config)
    groups = group_sequences(tokens, offsets, windows.labels)
    encoder = train_log_encoder(groups, windows.labels, config, vocab_size)
    scores = encoder.score(embed_windows(encoder, groups))
    training = {
        "epochs_run": len(encoder.history),
        "final_loss": encoder.history[-1],
        "diagnostics": {
            "truncated_windows": int(truncated.sum()),
            "unique_sequences": len(groups.counts),
        },
    }
    return reduce_to_series(scores, windows, kpi, entity_names), training


def reduce_to_series(
    scores: np.ndarray,
    windows: WindowTable,
    kpi: np.ndarray,
    entity_names: list[str],
) -> ModalityPanel:
    """Place one anomaly score per (entity, window) cell and assemble the log panel.

    scores holds one score per cell of the windows' entity-major grid, which is
    one row per entity name by one column per KPI value (the pipeline checks
    the metric panel against the windows before it trains). The KPI series
    becomes the last panel row.
    """
    scores = np.asarray(scores, dtype=float)
    values = np.empty((windows.n_entities + 1, windows.n_windows))
    values[:-1] = scores.reshape(windows.n_entities, windows.n_windows)
    values[-1] = kpi
    return ModalityPanel(values, entity_names)

