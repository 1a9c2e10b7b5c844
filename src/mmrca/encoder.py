"""Regression-trained log sequence encoder.

Windows of log templates become token sequences ([CLS], then each template
token followed by its quantized frequency token). A small bidirectional
transformer is trained to regress the golden-signal anomaly label from the
[CLS] position, and the trained [CLS] embeddings are projected onto their
first principal component to yield one time series per entity. Training runs
the network once per distinct (token sequence, label) row and embedding once
per distinct token sequence. At a fixed padded length a row's forward pass
does not depend on the other rows of its batch, and the distinct sequences
pad to the same length as all windows, so identical windows share one result
that is bit-identical to embedding every window.

The network is plain numpy with hand-derived gradients so that training is
bit-deterministic and the analytic gradients can be checked against finite
differences.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .logs import EMPTY_TEMPLATE_ID, LogSequenceWindow, LogTemplate, vocabulary_to_json
from .nn import Adam, gelu, gelu_grad, layer_norm, layer_norm_backward, softmax
from .panel import ModalityPanel
from .simulate import entity_name

PAD_TOKEN = 0
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
    epochs: int = 200
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
    """Log2 quantization; bucket 0 is reserved for the empty-window marker."""
    if frequency < 1:
        raise ValueError("frequencies must be positive")
    return min(n_buckets - 1, int(np.floor(np.log2(frequency))) + 1)


class LogTokenizer:
    """Maps windows to token id sequences over templates + frequency buckets."""

    def __init__(self, vocab_size: int, config: EncoderConfig):
        self.vocab_size = vocab_size
        self.config = config
        self.truncation_count = 0

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
            self.truncation_count += 1
            pairs = pairs[:max_pairs]
        tokens = [CLS_TOKEN]
        for template_token, bucket_token in pairs:
            tokens.extend((template_token, bucket_token))
        return TokenSequence(tokens=tokens, max_len=self.config.max_len, truncated=truncated)


def tokenize(window: LogSequenceWindow, config: EncoderConfig, vocab_size: int) -> TokenSequence:
    """One-off tokenization helper mirroring LogTokenizer.tokenize."""
    return LogTokenizer(vocab_size, config).tokenize(window)


def pad_tokens(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token sequences to the longest one: (ids, mask), mask 1.0 on real tokens."""
    length = max(len(seq) for seq in sequences)
    ids = np.full((len(sequences), length), PAD_TOKEN, dtype=int)
    mask = np.zeros((len(sequences), length))
    for i, seq in enumerate(sequences):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return ids, mask


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

    # -- batching -------------------------------------------------------------

    def batch(self, windows: list[LogSequenceWindow]) -> tuple[np.ndarray, np.ndarray]:
        return pad_tokens([self.tokenizer.tokenize(w).tokens for w in windows])

    # -- forward --------------------------------------------------------------

    def _forward(self, ids: np.ndarray, mask: np.ndarray):
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
            scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d_head)
            scores = np.where(mask[:, None, None, :] > 0, scores, -1e30)
            attn = softmax(scores, axis=-1)
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

    def predict(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        hidden, _ = self._forward(ids, mask)
        logits = (hidden[:, 0, :] @ self.params["head_w"]).ravel() + self.params["head_b"][0]
        return 1.0 / (1.0 + np.exp(-logits))

    # -- loss and gradients -----------------------------------------------------

    def loss_and_grads(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        """Weighted mean squared error and its gradients.

        weights lets identical windows be collapsed into one row with a count;
        the weighted loss equals the plain mean over the expanded batch.
        """
        p = self.params
        cfg = self.config
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        b, l = ids.shape
        if weights is None:
            weights = np.ones(b)
        total_weight = weights.sum()

        hidden, caches = self._forward(ids, mask)
        cls = hidden[:, 0, :]
        logits = (cls @ p["head_w"]).ravel() + p["head_b"][0]
        pred = 1.0 / (1.0 + np.exp(-logits))
        residual = pred - labels
        loss = float((weights * residual**2).sum() / total_weight)

        grads = {key: np.zeros_like(val) for key, val in p.items()}
        dlogits = 2.0 * weights * residual / total_weight * pred * (1.0 - pred)
        grads["head_w"] += cls.T @ dlogits[:, None]
        grads["head_b"] += np.array([dlogits.sum()])
        dx = np.zeros_like(hidden)
        dx[:, 0, :] = dlogits[:, None] * p["head_w"].ravel()[None, :]

        for layer in reversed(range(cfg.n_layers)):
            pre = f"l{layer}."
            c = caches[layer]
            dr2, dg, db = layer_norm_backward(dx, c["ln2"])
            grads[pre + "ln2_g"] += dg
            grads[pre + "ln2_b"] += db
            dh1 = dr2.copy()
            df_out = dr2
            da = df_out @ p[pre + "wf2"].T
            grads[pre + "wf2"] += c["a"].reshape(-1, c["a"].shape[-1]).T @ df_out.reshape(-1, cfg.d_model)
            grads[pre + "bf2"] += df_out.sum(axis=(0, 1))
            du = da * gelu_grad(c["u"], c["gelu_t"])
            grads[pre + "wf1"] += c["h1"].reshape(-1, cfg.d_model).T @ du.reshape(-1, du.shape[-1])
            grads[pre + "bf1"] += du.sum(axis=(0, 1))
            dh1 += du @ p[pre + "wf1"].T
            dr1, dg, db = layer_norm_backward(dh1, c["ln1"])
            grads[pre + "ln1_g"] += dg
            grads[pre + "ln1_b"] += db
            dx = dr1.copy()
            datt_out = dr1
            dctx = datt_out @ p[pre + "wo"].T
            grads[pre + "wo"] += c["ctx"].reshape(-1, cfg.d_model).T @ datt_out.reshape(-1, cfg.d_model)
            grads[pre + "bo"] += datt_out.sum(axis=(0, 1))
            dctx = dctx.reshape(b, l, n_heads, d_head).transpose(0, 2, 1, 3)
            dattn = dctx @ c["v"].transpose(0, 1, 3, 2)
            dv = c["attn"].transpose(0, 1, 3, 2) @ dctx
            attn = c["attn"]
            dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
            dscores /= np.sqrt(d_head)
            dq = dscores @ c["k"]
            dk = dscores.transpose(0, 1, 3, 2) @ c["q"]

            def merge(m):
                return m.transpose(0, 2, 1, 3).reshape(b, l, cfg.d_model)

            x_in = c["x"].reshape(-1, cfg.d_model)
            for name, dm in (("wq", merge(dq)), ("wk", merge(dk)), ("wv", merge(dv))):
                grads[pre + name] += x_in.T @ dm.reshape(-1, cfg.d_model)
                grads[pre + name.replace("w", "b")] += dm.sum(axis=(0, 1))
                dx += dm @ p[pre + name].T

        np.add.at(grads["tok_emb"], ids, dx)
        grads["pos_emb"][:l] += dx.sum(axis=0)
        return loss, grads

    # -- embeddings -------------------------------------------------------------

    def embed(self, windows: list[LogSequenceWindow]) -> np.ndarray:
        """[CLS] hidden state per window, running each distinct token sequence once."""
        row_of: dict[tuple, int] = {}
        rows = [
            row_of.setdefault(tuple(self.tokenizer.tokenize(w).tokens), len(row_of))
            for w in windows
        ]
        hidden, _ = self._forward(*pad_tokens(list(row_of)))
        return hidden[rows, 0, :]


def train_log_encoder(
    windows: list[LogSequenceWindow],
    config: EncoderConfig,
    vocab_size: int | None = None,
) -> LogSequenceEncoder:
    """Fit the anomaly-score regression by full-batch Adam; deterministic per seed.

    Duplicate (token sequence, label) windows collapse into weighted rows, so
    the per-epoch loss still equals the plain mean over all windows.
    """
    if not windows:
        raise ValueError("no windows to train on")
    if vocab_size is None:
        vocab_size = max(
            (t for w in windows for t in w.templates if t != EMPTY_TEMPLATE_ID), default=-1
        ) + 1
    encoder = LogSequenceEncoder(config, vocab_size)

    groups: dict[tuple, int] = {}
    for window in windows:
        tokens = tuple(encoder.tokenizer.tokenize(window).tokens)
        groups[(tokens, window.label)] = groups.get((tokens, window.label), 0) + 1
    keys = list(groups)
    ids, mask = pad_tokens([tokens for tokens, _ in keys])
    labels = np.array([label for _, label in keys], dtype=float)
    weights = np.array([groups[key] for key in keys], dtype=float)

    # smoothed targets keep the optimum away from the sigmoid boundary, where
    # a vanished derivative would otherwise make collapsed predictions
    # absorbing
    targets = labels * (1.0 - 2.0 * LABEL_SMOOTHING) + LABEL_SMOOTHING

    # the head starts at the label base rate with zero weights, so descent
    # first grows the head along whatever feature direction separates the
    # labels before touching the features themselves
    base_rate = np.clip((weights * targets).sum() / weights.sum(), 0.05, 0.95)
    encoder.params["head_b"][0] = np.log(base_rate / (1.0 - base_rate))

    optimizer = Adam(encoder.params, lr=config.lr)
    for epoch in range(config.epochs):
        loss, grads = encoder.loss_and_grads(ids, mask, targets, weights)
        if not np.isfinite(loss):
            raise FloatingPointError(f"training loss became non-finite at epoch {epoch}")
        encoder.history.append(loss)
        optimizer.step(grads)
    encoder.diagnostics["truncated_windows"] = encoder.tokenizer.truncation_count
    encoder.diagnostics["unique_sequences"] = len(keys)
    return encoder


def embed_windows(encoder: LogSequenceEncoder, windows: list[LogSequenceWindow]) -> np.ndarray:
    """[CLS] hidden state per window; shape (n_windows, d_model), no gradients kept.

    Windows with identical token sequences are embedded once and share the
    resulting row, bit-identical to running every window in one padded batch.
    """
    return encoder.embed(windows)


# --- PCA reduction to a one-dimensional series --------------------------------


@dataclass
class PcaProjection:
    direction: np.ndarray
    mean: np.ndarray
    explained_variance: float


def fit_pca(embeddings: np.ndarray, labels: np.ndarray | None = None) -> PcaProjection:
    """First principal component (unit norm), sign aligned with the anomaly labels.

    Degenerate (zero-variance) embeddings yield a zero direction and a warning
    so the projected series is all zeros rather than an error.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    mean = embeddings.mean(axis=0)
    centered = embeddings - mean
    cov = centered.T @ centered / max(len(embeddings), 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvals[-1]
    if top <= 1e-15:
        warnings.warn("embeddings have zero variance; log series will be all zeros")
        return PcaProjection(direction=np.zeros(embeddings.shape[1]), mean=mean,
                             explained_variance=0.0)
    direction = eigvecs[:, -1]
    # eigh sign is arbitrary: fix a deterministic convention first, then align
    # with the labels so anomalies point in the positive direction
    if direction[np.argmax(np.abs(direction))] < 0:
        direction = -direction
    if labels is not None:
        proj = centered @ direction
        centered_labels = np.asarray(labels, dtype=float) - np.mean(labels)
        if float(proj @ centered_labels) < 0:
            direction = -direction
    return PcaProjection(direction=direction, mean=mean, explained_variance=float(top))


def reduce_to_series(
    embeddings: np.ndarray,
    window_index_map,
    n_entities: int,
    kpi: np.ndarray,
    labels: np.ndarray | None = None,
    entity_names: list[str] | None = None,
    return_projection: bool = False,
):
    """Project embeddings on the first principal component and assemble the log panel.

    window_index_map holds one (entity, window_index) pair per embedding row;
    together they must cover the full n_entities x len(kpi) grid exactly once.
    The KPI series becomes the last panel row.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    kpi = np.asarray(kpi, dtype=float)
    n_windows = len(kpi)
    if len(window_index_map) != len(embeddings):
        raise ValueError("window_index_map must align with the embedding rows")
    seen = set()
    for entity, window in window_index_map:
        if not (0 <= entity < n_entities and 0 <= window < n_windows):
            raise ValueError(f"window map entry ({entity}, {window}) outside the grid")
        if (entity, window) in seen:
            raise ValueError(f"duplicate embedding for entity {entity}, window {window}")
        seen.add((entity, window))
    if len(seen) != n_entities * n_windows:
        raise ValueError("window map does not cover every (entity, window) cell")

    pca = fit_pca(embeddings, labels)
    proj = (embeddings - pca.mean) @ pca.direction
    values = np.zeros((n_entities + 1, n_windows))
    for row, (entity, window) in enumerate(window_index_map):
        values[entity, window] = proj[row]
    values[-1] = kpi
    if entity_names is None:
        entity_names = [entity_name(i) for i in range(n_entities)]
    panel = ModalityPanel(values, entity_names, "kpi")
    if return_projection:
        return panel, pca
    return panel


# --- persistence ----------------------------------------------------------------


def vocabulary_hash(vocabulary: list[LogTemplate]) -> str:
    return hashlib.sha256(vocabulary_to_json(vocabulary).encode()).hexdigest()


def save_encoder(
    encoder: LogSequenceEncoder,
    checkpoint_path,
    manifest_path,
    vocabulary: list[LogTemplate],
    pca: PcaProjection | None = None,
) -> None:
    arrays = dict(encoder.params)
    if pca is not None:
        arrays["pca_direction"] = pca.direction
        arrays["pca_mean"] = pca.mean
        arrays["pca_explained_variance"] = np.array([pca.explained_variance])
    np.savez(checkpoint_path, **arrays)
    manifest = {
        "config": encoder.config.__dict__,
        "vocab_size": encoder.vocab_size,
        "vocabulary_sha256": vocabulary_hash(vocabulary),
        "final_loss": encoder.history[-1] if encoder.history else None,
        "diagnostics": encoder.diagnostics,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_encoder(checkpoint_path, manifest_path) -> tuple[LogSequenceEncoder, PcaProjection | None]:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    config = EncoderConfig(**manifest["config"])
    encoder = LogSequenceEncoder(config, manifest["vocab_size"])
    data = np.load(checkpoint_path)
    for key in encoder.params:
        encoder.params[key] = data[key]
    pca = None
    if "pca_direction" in data:
        pca = PcaProjection(
            direction=data["pca_direction"],
            mean=data["pca_mean"],
            explained_variance=float(data["pca_explained_variance"][0]),
        )
    return encoder, pca
