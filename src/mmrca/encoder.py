"""Regression-trained log sequence encoder, and the log series it yields.

Windows of log templates become token sequences ([CLS], then each template
token followed by its quantized frequency token). A small bidirectional
transformer is trained to regress the golden-signal anomaly label of each
window from the [CLS] position. Its sigmoid head (LogSequenceEncoder.score)
maps a [CLS] state to an anomaly score in (0, 1), and the score of each
(entity, window) cell is the entity's log series (reduce_to_series). When
every window carries the same label there is nothing to regress, and the
pipeline scores with an untrained encoder instead: its head weights are zero,
so any [CLS] state scores exactly 0.5, and the pipeline skips running the
transformer over the windows. The result is a constant series that says the
logs hold no evidence.

Training runs the network once per distinct (token sequence, label) row and
embedding once per distinct token sequence, in length groups: batches whose
sequences all have one token length, shortest first. Nothing is padded, so
no position is masked, and a row's forward pass depends only on its own
tokens. Identical windows share one result, bit-identical to running each
window alone. Training stays full-batch: every length group adds into one
gradient, normalised by the total weight of all rows, and Adam steps once an
epoch, so the loss is the plain mean over all windows.

The pipeline tokenizes each window once (LogTokenizer.tokenize) and hands
the same token sequences to training and to embedding.

The network is plain numpy with hand-derived gradients so that training is
bit-deterministic and the analytic gradients can be checked against finite
differences.

Precision: every layer computes in the dtype of the parameters it holds. A
LogSequenceEncoder is built in float64, which is what the finite-difference
checks run, and train_log_encoder casts the parameters, the targets and the
weights to float32 once the seed's draws and the head bias are set. Single
precision halves the memory traffic and numpy's float32 tanh is several times
faster than its float64 one; on one thread the encoder is bound by those, not
by arithmetic. A checkpoint keeps the dtype it was saved in, so embed runs a
float64 checkpoint in float64.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .atomic import atomic_open
from .logs import EMPTY_TEMPLATE_ID, LogSequenceWindow, LogTemplate, vocabulary_to_json
from .nn import Adam, gelu, gelu_grad, layer_norm, layer_norm_backward, softmax
from .panel import ModalityPanel
from .simulate import entity_name

PAD_TOKEN = 0  # reserved (tok_emb keeps its row) but never emitted: nothing is padded
CLS_TOKEN = 1
EMPTY_TOKEN = 2
N_RESERVED = 3

FFN_MULT = 2  # feed-forward width relative to d_model
LABEL_SMOOTHING = 0.01  # keeps regression targets off the sigmoid boundary


@dataclass
class EncoderConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_len: int = 128
    lr: float = 0.03
    epochs: int = 150
    freq_buckets: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "max_len", "epochs", "freq_buckets"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


@dataclass
class TokenSequence:
    tokens: list[int]
    max_len: int
    truncated: bool = False

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != CLS_TOKEN:
            raise ValueError("token sequences must start with the CLS token")
        if len(self.tokens) > self.max_len:
            raise ValueError("token sequence exceeds max_len")


def freq_bucket(frequency: int, n_buckets: int) -> int:
    """Log2 quantization; bucket 0 is reserved for the empty-window marker.

    Bucket b >= 1 holds the frequencies in [2**(b-1), 2**b), so a frequency's
    bucket is its bit length, capped at the top bucket: exact for every int.
    """
    if frequency < 1:
        raise ValueError("frequencies must be positive")
    return min(n_buckets - 1, int(frequency).bit_length())


class LogTokenizer:
    """Maps windows to token id sequences over templates + frequency buckets."""

    def __init__(self, vocab_size: int, config: EncoderConfig):
        self.vocab_size = vocab_size
        self.config = config

    @property
    def total_tokens(self) -> int:
        return N_RESERVED + self.config.freq_buckets + self.vocab_size

    def bucket_token(self, bucket: int) -> int:
        return N_RESERVED + bucket

    def template_token(self, template_id: int) -> int:
        if template_id == EMPTY_TEMPLATE_ID:
            return EMPTY_TOKEN
        if not 0 <= template_id < self.vocab_size:
            raise ValueError(f"template id {template_id} outside the vocabulary")
        return N_RESERVED + self.config.freq_buckets + template_id

    def tokenize(self, window: LogSequenceWindow) -> TokenSequence:
        pairs = []
        if window.is_empty:
            pairs.append((EMPTY_TOKEN, self.bucket_token(0)))
        else:
            for template_id, frequency in zip(window.templates, window.frequencies):
                pairs.append(
                    (
                        self.template_token(template_id),
                        self.bucket_token(freq_bucket(frequency, self.config.freq_buckets)),
                    )
                )
        max_pairs = (self.config.max_len - 1) // 2
        truncated = len(pairs) > max_pairs
        if truncated:
            pairs = pairs[:max_pairs]
        tokens = [CLS_TOKEN]
        for template_token, bucket_token in pairs:
            tokens.extend((template_token, bucket_token))
        return TokenSequence(tokens=tokens, max_len=self.config.max_len, truncated=truncated)


def length_groups(sequences) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split token sequences into groups of one length, in ascending length.

    Each group is (rows, ids): the indices of its sequences in input order and
    their token ids, shape (len(rows), length).
    """
    rows_of: dict[int, list[int]] = {}
    for row, seq in enumerate(sequences):
        rows_of.setdefault(len(seq), []).append(row)
    return [
        (np.array(rows), np.array([sequences[row] for row in rows], dtype=int))
        for _, rows in sorted(rows_of.items())
    ]


class LogSequenceEncoder:
    """Bidirectional transformer with a sigmoid regression head on [CLS]."""

    def __init__(self, config: EncoderConfig, vocab_size: int):
        self.config = config
        self.vocab_size = vocab_size
        self.tokenizer = LogTokenizer(vocab_size, config)
        self.history: list[float] = []
        self.diagnostics: dict = {}
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        # content-rich initialization: embeddings and value/feed-forward paths
        # start at full scale so the [CLS] state varies strongly with window
        # content from the first step, while small query/key weights keep the
        # attention near uniform. The rare anomalous windows then remain
        # linearly readable instead of drowning in an almost-constant [CLS].
        p: dict[str, np.ndarray] = {
            "tok_emb": 0.5 * rng.standard_normal((self.tokenizer.total_tokens, d)),
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
        """Hidden states of a batch of sequences that all have one length, and the caches."""
        p = self.params
        cfg = self.config
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        x = p["tok_emb"][ids] + p["pos_emb"][: ids.shape[1]][None, :, :]
        caches = []
        for layer in range(cfg.n_layers):
            pre = f"l{layer}."
            b, l, d = x.shape

            def heads(m):
                return m.reshape(b, l, n_heads, d_head).transpose(0, 2, 1, 3)

            q = heads(x @ p[pre + "wq"] + p[pre + "bq"])
            k = heads(x @ p[pre + "wk"] + p[pre + "bk"])
            v = heads(x @ p[pre + "wv"] + p[pre + "bv"])
            attn = softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(d_head), axis=-1)
            ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, l, d)
            att_out = ctx @ p[pre + "wo"] + p[pre + "bo"]
            r1 = x + att_out
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
        return expit((cls @ self.params["head_w"]).ravel() + self.params["head_b"][0])

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
            dx = np.zeros_like(hidden)
            dx[:, 0, :] = dlogits[:, None] * p["head_w"].ravel()[None, :]
            self._backward(ids, caches, dx, grads)
        return float(weighted_sse / total_weight), grads

    def _backward(self, ids: np.ndarray, caches, dx: np.ndarray, grads: dict) -> None:
        """Add to grads the parameter gradients of one length group, given d(loss)/d(hidden)."""
        p = self.params
        cfg = self.config
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        b, l = ids.shape
        # a bias gradient sums over every position: one BLAS product is faster than
        # numpy's sum over the two leading axes
        ones = np.ones(b * l, dtype=dx.dtype)

        def rows(m):
            return m.reshape(b * l, m.shape[-1])

        def merge(m):
            return m.transpose(0, 2, 1, 3).reshape(b, l, cfg.d_model)

        for layer in reversed(range(cfg.n_layers)):
            pre = f"l{layer}."
            c = caches[layer]
            dr2, dg, db = layer_norm_backward(dx, c["ln2"])
            grads[pre + "ln2_g"] += dg
            grads[pre + "ln2_b"] += db
            dh1 = dr2.copy()
            df_out = dr2
            da = df_out @ p[pre + "wf2"].T
            grads[pre + "wf2"] += rows(c["a"]).T @ rows(df_out)
            grads[pre + "bf2"] += ones @ rows(df_out)
            du = da * gelu_grad(c["u"], c["gelu_t"])
            grads[pre + "wf1"] += rows(c["h1"]).T @ rows(du)
            grads[pre + "bf1"] += ones @ rows(du)
            dh1 += du @ p[pre + "wf1"].T
            dr1, dg, db = layer_norm_backward(dh1, c["ln1"])
            grads[pre + "ln1_g"] += dg
            grads[pre + "ln1_b"] += db
            dx = dr1.copy()
            datt_out = dr1
            dctx = datt_out @ p[pre + "wo"].T
            grads[pre + "wo"] += rows(c["ctx"]).T @ rows(datt_out)
            grads[pre + "bo"] += ones @ rows(datt_out)
            dctx = dctx.reshape(b, l, n_heads, d_head).transpose(0, 2, 1, 3)
            dattn = dctx @ c["v"].transpose(0, 1, 3, 2)
            dv = c["attn"].transpose(0, 1, 3, 2) @ dctx
            attn = c["attn"]
            dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
            dscores /= math.sqrt(d_head)
            dq = dscores @ c["k"]
            dk = dscores.transpose(0, 1, 3, 2) @ c["q"]

            x_in = rows(c["x"])
            for name, dm in (("wq", merge(dq)), ("wk", merge(dk)), ("wv", merge(dv))):
                grads[pre + name] += x_in.T @ rows(dm)
                grads[pre + name.replace("w", "b")] += ones @ rows(dm)
                dx += dm @ p[pre + name].T

        np.add.at(grads["tok_emb"], ids, dx)
        grads["pos_emb"][:l] += dx.sum(axis=0)

    # -- embeddings -------------------------------------------------------------

    def embed(self, sequences: list[TokenSequence]) -> np.ndarray:
        """[CLS] hidden state per token sequence, running each distinct sequence once.

        The distinct sequences run in length groups, so a row depends only on
        its own tokens: it is bit-identical to running the sequence alone. The
        rows have the dtype of the parameters.
        """
        row_of: dict[tuple, int] = {}
        rows = [row_of.setdefault(tuple(s.tokens), len(row_of)) for s in sequences]
        cls = np.empty((len(row_of), self.config.d_model), dtype=self.params["tok_emb"].dtype)
        for group_rows, ids in length_groups(list(row_of)):
            cls[group_rows] = self._forward(ids)[0][:, 0, :]
        return cls[rows]


def train_log_encoder(
    sequences: list[TokenSequence],
    labels: list[float],
    config: EncoderConfig,
    vocab_size: int,
) -> LogSequenceEncoder:
    """Fit the anomaly-score regression by full-batch Adam; deterministic per seed.

    sequences holds each window's tokens, as a LogTokenizer over vocab_size
    templates and config made them, and labels each window's label. Duplicate
    (token sequence, label) windows collapse into weighted rows, which run in
    length groups: ascending token length, first-seen order within a length.
    Each epoch runs every group forward and backward into one gradient and
    takes one Adam step, so the per-epoch loss still equals the plain mean over
    all windows. Training runs in float32: the returned encoder's parameters
    are float32.
    """
    if not sequences:
        raise ValueError("no windows to train on")
    if len(labels) != len(sequences):
        raise ValueError("labels must align with the token sequences")
    encoder = LogSequenceEncoder(config, vocab_size)

    groups, diagnostics = group_windows(sequences, labels)
    row_labels = np.array([label for _, label in groups], dtype=float)
    weights = np.array(list(groups.values()), dtype=float)

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
    by_length = [
        (ids, targets[rows], weights[rows])
        for rows, ids in length_groups([tokens for tokens, _ in groups])
    ]
    optimizer = Adam(encoder.params, lr=config.lr)
    for epoch in range(config.epochs):
        loss, grads = encoder.loss_and_grads(by_length)
        if not np.isfinite(loss):
            raise FloatingPointError(f"training loss became non-finite at epoch {epoch}")
        encoder.history.append(loss)
        optimizer.step(grads)
    encoder.diagnostics = diagnostics
    return encoder


def group_windows(sequences: list[TokenSequence], labels) -> tuple[dict, dict]:
    """Count the windows of each distinct (token sequence, label) pair, in first-seen order.

    sequences and labels hold one entry per window. Returns the counts and the
    diagnostics the encoder manifest reports: the windows whose sequence was
    truncated and the number of distinct pairs.
    """
    groups: dict[tuple, int] = {}
    for sequence, label in zip(sequences, labels):
        key = (tuple(sequence.tokens), label)
        groups[key] = groups.get(key, 0) + 1
    truncated = sum(sequence.truncated for sequence in sequences)
    return groups, {"truncated_windows": truncated, "unique_sequences": len(groups)}


def embed_windows(encoder: LogSequenceEncoder, sequences: list[TokenSequence]) -> np.ndarray:
    """[CLS] hidden state per window, given each window's token sequence.

    Shape (n_windows, d_model), no gradients kept. Windows with identical
    token sequences are embedded once, in length groups, and share the
    resulting row, bit-identical to running each window alone.
    """
    return encoder.embed(sequences)


# --- the log series --------------------------------------------------------------


def reduce_to_series(
    scores: np.ndarray,
    window_index_map,
    n_entities: int,
    kpi: np.ndarray,
    entity_names: list[str] | None = None,
) -> ModalityPanel:
    """Place one anomaly score per (entity, window) cell and assemble the log panel.

    window_index_map holds one (entity, window_index) pair per score; together
    they must cover the full n_entities x len(kpi) grid exactly once. The KPI
    series becomes the last panel row.
    """
    scores = np.asarray(scores, dtype=float)
    kpi = np.asarray(kpi, dtype=float)
    n_windows = len(kpi)
    if len(window_index_map) != len(scores):
        raise ValueError("window_index_map must align with the scores")
    seen = set()
    for entity, window in window_index_map:
        if not (0 <= entity < n_entities and 0 <= window < n_windows):
            raise ValueError(f"window map entry ({entity}, {window}) outside the grid")
        if (entity, window) in seen:
            raise ValueError(f"duplicate score for entity {entity}, window {window}")
        seen.add((entity, window))
    if len(seen) != n_entities * n_windows:
        raise ValueError("window map does not cover every (entity, window) cell")

    values = np.zeros((n_entities + 1, n_windows))
    for row, (entity, window) in enumerate(window_index_map):
        values[entity, window] = scores[row]
    values[-1] = kpi
    if entity_names is None:
        entity_names = [entity_name(i) for i in range(n_entities)]
    return ModalityPanel(values, entity_names, "kpi")


# --- persistence ----------------------------------------------------------------


def vocabulary_hash(vocabulary: list[LogTemplate]) -> str:
    return hashlib.sha256(vocabulary_to_json(vocabulary).encode()).hexdigest()


def save_encoder(
    encoder: LogSequenceEncoder,
    checkpoint_path,
    manifest_path,
    vocabulary: list[LogTemplate],
) -> None:
    with atomic_open(checkpoint_path, "wb") as fh:
        np.savez(fh, **encoder.params)
    manifest = {
        "config": encoder.config.__dict__,
        "vocab_size": encoder.vocab_size,
        "vocabulary_sha256": vocabulary_hash(vocabulary),
        "epochs_run": len(encoder.history),
        "final_loss": encoder.history[-1] if encoder.history else None,
        "diagnostics": encoder.diagnostics,
    }
    with atomic_open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_encoder(checkpoint_path, manifest_path) -> LogSequenceEncoder:
    """Rebuild the encoder the manifest describes and load the checkpoint's parameters.

    Raises ValueError naming the first parameter that the checkpoint lacks or
    holds in another shape, as when the two files come from different saves.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    config = EncoderConfig(**manifest["config"])
    encoder = LogSequenceEncoder(config, manifest["vocab_size"])
    with np.load(checkpoint_path) as data:
        for key, param in encoder.params.items():
            shape = data[key].shape if key in data else None
            if shape != param.shape:
                raise ValueError(
                    f"checkpoint array {key!r} has shape {shape}, "
                    f"but the manifest's config builds {param.shape}"
                )
            encoder.params[key] = data[key]
    return encoder
