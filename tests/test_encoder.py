import warnings
from collections import namedtuple

import numpy as np
import pytest
from scipy.special import expit

from mmrca import encoder as encoder_mod
from mmrca.encoder import (
    CLS_TOKEN,
    EMPTY_TOKEN,
    EncoderConfig,
    LogSequenceEncoder,
    N_RESERVED,
    embed_windows,
    freq_bucket,
    group_sequences,
    log_series,
    n_tokens,
    reduce_to_series,
    tokenize,
    train_log_encoder,
)
from mmrca.logs import WindowTable
from mmrca.nn import Adam, gelu, gelu_grad, layer_norm, layer_norm_backward, sigmoid, softmax


def toy_config(**overrides):
    base = dict(d_model=16, n_layers=2, n_heads=2, max_len=32, lr=0.03, epochs=50,
                freq_buckets=16, seed=0)
    base.update(overrides)
    return EncoderConfig(**base)


Window = namedtuple("Window", "templates frequencies label")


def window(templates, frequencies, label=0.0):
    return Window(templates, frequencies, label)


def table(windows):
    """A one-entity WindowTable whose cells are the windows, in order."""
    offsets = np.cumsum([0] + [len(w.templates) for w in windows])
    return WindowTable(
        1, len(windows), offsets,
        [t for w in windows for t in w.templates],
        [f for w in windows for f in w.frequencies],
        [w.label for w in windows],
    )


def sequences(windows, config):
    """Each window's token ids as a list, and whether each was cut."""
    tokens, offsets, truncated = tokenize(table(windows), config)
    return [tokens[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])], truncated.tolist()


def tokens_of(w, config):
    return sequences([w], config)[0][0]


def template_token(template_id, config):
    return N_RESERVED + config.freq_buckets + template_id


def bucket_token(bucket):
    return N_RESERVED + bucket


def groups_of(enc, windows):
    """The windows' (token sequence, label) rows, as log_series hands them to embed_windows."""
    windows = table(windows)
    tokens, offsets, _ = tokenize(windows, enc.config)
    return group_sequences(tokens, offsets, windows.labels)


def train(windows, config, vocab_size=None):
    """train_log_encoder on windows tokenized and grouped as the pipeline does; by
    default the vocabulary is the templates the windows use."""
    if vocab_size is None:
        vocab_size = 1 + max((t for w in windows for t in w.templates), default=-1)
    tokens, offsets, _ = tokenize(table(windows), config)
    labels = np.array([w.label for w in windows])
    return train_log_encoder(group_sequences(tokens, offsets, labels), labels, config, vocab_size)


class TestFreqBuckets:
    def test_frequency_one_maps_to_bucket_one(self):
        assert freq_bucket(1, 16) == 1

    def test_powers_of_two(self):
        assert freq_bucket(1024, 16) == 11  # floor(log2(1024)) + 1

    def test_saturation_at_top_bucket(self):
        assert freq_bucket(2**40, 16) == 15

    def test_exact_on_both_sides_of_every_power_of_two(self):
        # np.log2 rounds 2**49 - 1 up to 49.0, which put it one bucket too high
        assert freq_bucket(2**49 - 1, 64) == 49
        for k in range(1, 63):
            assert freq_bucket(2**k - 1, 64) == k
            assert freq_bucket(2**k, 64) == k + 1

    def test_monotone(self):
        buckets = [freq_bucket(f, 16) for f in range(1, 200)]
        assert all(b >= a for a, b in zip(buckets, buckets[1:]))


class TestTokenizer:
    def test_single_template(self):
        cfg = toy_config()
        seq = tokens_of(window([1], [1]), cfg)
        assert seq == [CLS_TOKEN, template_token(1, cfg), bucket_token(1)]

    def test_empty_window_uses_reserved_tokens(self):
        seq = tokens_of(window([], []), toy_config())
        assert seq == [CLS_TOKEN, EMPTY_TOKEN, bucket_token(0)]


    def test_frequencies_interleaved(self):
        cfg = toy_config()
        seq = tokens_of(window([0, 2], [1, 1024]), cfg)
        assert seq == [
            CLS_TOKEN,
            template_token(0, cfg), bucket_token(1),
            template_token(2, cfg), bucket_token(11),
        ]

    def test_truncation_counted_and_pairs_kept_whole(self):
        (seq,), (cut,) = sequences([window(list(range(10)), [1] * 10)], toy_config(max_len=8))
        assert len(seq) == 1 + 2 * 3  # CLS + 3 whole pairs
        assert cut

    def test_all_ids_within_total_vocabulary(self):
        cfg = toy_config()
        seq = tokens_of(window([0, 6], [3, 9]), cfg)
        assert all(0 <= t < n_tokens(7, cfg) for t in seq)


def oracle_tokens(config, w):
    """The per-window tokenize that the table's tokenizer replaced: (tokens, truncated)."""
    if not w.templates:
        pairs = [(EMPTY_TOKEN, N_RESERVED)]
    else:
        pairs = [
            (N_RESERVED + config.freq_buckets + t,
             N_RESERVED + min(config.freq_buckets - 1, int(f).bit_length()))
            for t, f in zip(w.templates, w.frequencies)
        ]
    max_pairs = (config.max_len - 1) // 2
    return [CLS_TOKEN] + [x for pair in pairs[:max_pairs] for x in pair], len(pairs) > max_pairs


class TestTokenizeTable:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_per_window_tokenizer(self, seed):
        rng = np.random.default_rng(seed)
        windows = []
        for _ in range(40):
            if rng.integers(0, 4) == 0:
                windows.append(window([], []))
            else:
                n = int(rng.integers(1, 12))
                templates = rng.permutation(20)[:n].tolist()
                frequencies = 2 ** rng.integers(0, 40, n) + rng.integers(0, 3, n)
                windows.append(window(templates, frequencies.tolist()))
        config = toy_config(max_len=int(rng.integers(3, 20)), freq_buckets=int(rng.integers(1, 20)))
        tokens, offsets, truncated = tokenize(table(windows), config)
        assert tokens.dtype == offsets.dtype == np.int64
        cells = zip(offsets[:-1], offsets[1:], truncated)
        got = [(tokens[a:b].tolist(), cut) for a, b, cut in cells]
        assert got == [oracle_tokens(config, w) for w in windows]


def oracle_group_windows(sequences, labels):
    """The dict grouping that group_sequences replaced: the window count of each
    distinct (token sequence, label) pair, in first-seen order."""
    groups = {}
    for tokens, label in zip(sequences, labels):
        key = (tuple(tokens), label)
        groups[key] = groups.get(key, 0) + 1
    return groups


def oracle_length_groups(sequences):
    """The length split that group_sequences replaced: (rows, ids) per token
    length, ascending, with the rows in input order."""
    rows_of = {}
    for row, seq in enumerate(sequences):
        rows_of.setdefault(len(seq), []).append(row)
    return [
        (np.array(rows), np.array([sequences[row] for row in rows], dtype=int))
        for _, rows in sorted(rows_of.items())
    ]


def random_windows(rng, n):
    """n windows drawn from a small pool, so sequences repeat, each under a random label."""
    pool = [window([], [])]
    for i in range(10):
        k = 1 + i % 6  # every template count, so every token length up to max_len 9
        pool.append(window(rng.permutation(12)[:k].tolist(), rng.integers(1, 9, k).tolist()))
    picks = rng.integers(0, len(pool), n)
    labels = rng.choice([0.0, 0.25, 1.0], n)
    return [pool[i]._replace(label=float(label)) for i, label in zip(picks, labels)]


class TestGroupSequences:
    @staticmethod
    def assert_same_length_groups(got, want):
        assert len(got) == len(want)
        for (rows, ids), (want_rows, want_ids) in zip(got, want):
            assert rows.tolist() == want_rows.tolist()
            assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_dict_grouping_it_replaced(self, seed):
        rng = np.random.default_rng(seed)
        windows = random_windows(rng, 300)
        tokens, offsets, truncated = tokenize(table(windows), toy_config(max_len=9))
        seqs = [tokens[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
        labels = np.array([w.label for w in windows])
        assert truncated.any() and not truncated.all()
        assert len({len(seq) for seq in seqs}) >= 4

        counted = oracle_group_windows(seqs, labels.tolist())
        keys = list(counted)
        groups = group_sequences(tokens, offsets, labels)
        assert groups.counts.tolist() == list(counted.values())
        row_of = {key: row for row, key in enumerate(keys)}
        assert groups.rows.tolist() == [row_of[tuple(s), y] for s, y in zip(seqs, labels.tolist())]
        assert groups.first.tolist() == [groups.rows.tolist().index(r) for r in range(len(keys))]
        assert labels[groups.first].tolist() == [label for _, label in keys]
        self.assert_same_length_groups(
            groups.by_length, oracle_length_groups([list(tokens) for tokens, _ in keys])
        )


def separable_corpus(n_each=30):
    """Labels exactly determined by the presence of template 0 (the keyword one)."""
    windows = []
    for i in range(n_each):
        windows.append(window([0], [2 + i % 3], label=1.0))
        windows.append(window([1 + i % 3], [1 + i % 4], label=0.0))
    return windows


class TestTraining:
    def test_constant_zero_labels_reach_tiny_mse(self):
        windows = [window([i % 3], [1 + i % 5], label=0.0) for i in range(40)]
        encoder = train(windows, toy_config(epochs=200))
        assert encoder.history[-1] <= 1e-3

    def test_separable_labels_reach_low_mse(self):
        windows = separable_corpus()
        # linear probe oracle: bag-of-templates features solve the labels exactly
        feats = np.zeros((len(windows), 4))
        for row, w in enumerate(windows):
            for t in w.templates:
                feats[row, t] = 1.0
        labels = np.array([w.label for w in windows])
        coef, residual, *_ = np.linalg.lstsq(
            np.hstack([feats, np.ones((len(windows), 1))]), labels, rcond=None
        )
        probe_mse = float(np.mean((np.hstack([feats, np.ones((len(windows), 1))]) @ coef - labels) ** 2))
        assert probe_mse < 1e-20  # confirms separability independently

        encoder = train(windows, toy_config(epochs=250))
        assert encoder.history[-1] <= 1e-2

    def test_truncated_windows_counted_once_each(self):
        windows = [window(list(range(10)), [1] * 10) for i in range(3)]
        windows += [window([i % 3], [1], label=float(i % 2)) for i in range(5)]
        _, training = log_series(table(windows), 10, toy_config(max_len=8, epochs=2),
                                 kpi=np.zeros(len(windows)), entity_names=["e0"])
        assert training["epochs_run"] == 2  # trained and embedded
        assert training["diagnostics"] == {"truncated_windows": 3, "unique_sequences": 6}

    @staticmethod
    def refuse_to_tokenize_or_train(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("constant labels were tokenized or trained on")

        for name in ("tokenize", "group_sequences", "LogSequenceEncoder", "train_log_encoder"):
            monkeypatch.setattr(encoder_mod, name, refuse)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_constant_labels_score_one_half_without_tokens_or_an_encoder(
        self, monkeypatch, label
    ):
        self.refuse_to_tokenize_or_train(monkeypatch)
        windows = [window(list(range(10)), [1] * 10, label=label) for i in range(2)]
        windows += [window([i % 3], [1], label=label) for i in range(4)] + [window([], [], label)]
        kpi = np.arange(len(windows), dtype=float)
        panel, training = log_series(table(windows), 10, toy_config(max_len=8, epochs=2),
                                     kpi=kpi, entity_names=["e0"])
        assert panel.entity_names == ["e0"]
        assert np.array_equal(panel.values[0], np.full(len(windows), 0.5))
        assert np.array_equal(panel.values[-1], kpi)
        assert training == {"epochs_run": 0, "final_loss": None}

    def test_same_seed_identical_parameters(self):
        windows = separable_corpus(10)
        a = train(windows, toy_config(epochs=30))
        b = train(windows, toy_config(epochs=30))
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_loss_history_recorded(self):
        windows = separable_corpus(5)
        encoder = train(windows, toy_config(epochs=25))
        assert len(encoder.history) == 25


def alone(enc, w):
    """[CLS] state of one window run by itself, at its own length."""
    return enc._forward(np.array([tokens_of(w, enc.config)]))[0][0, 0, :]


def padded_loss_and_grads(enc, sequences, labels, weights):
    """Reference: the weighted MSE and its gradients over one batch padded to the
    longest sequence, with padded keys masked out of attention."""
    p, cfg = enc.params, enc.config
    n_heads, d = cfg.n_heads, cfg.d_model
    d_head = d // n_heads
    b, l = len(sequences), max(len(seq) for seq in sequences)
    ids = np.zeros((b, l), dtype=int)
    mask = np.zeros((b, l))
    for i, seq in enumerate(sequences):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0

    def heads(m):
        return m.reshape(b, l, n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(b, l, d)

    x = p["tok_emb"][ids] + p["pos_emb"][:l][None, :, :]
    caches = []
    for layer in range(cfg.n_layers):
        pre = f"l{layer}."
        q = heads(x @ p[pre + "wq"] + p[pre + "bq"])
        k = heads(x @ p[pre + "wk"] + p[pre + "bk"])
        v = heads(x @ p[pre + "wv"] + p[pre + "bv"])
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d_head)
        attn = softmax(np.where(mask[:, None, None, :] > 0, scores, -1e30), axis=-1)
        ctx = merge(attn @ v)
        h1, ln1 = layer_norm(x + ctx @ p[pre + "wo"] + p[pre + "bo"], p[pre + "ln1_g"], p[pre + "ln1_b"])
        u = h1 @ p[pre + "wf1"] + p[pre + "bf1"]
        a, t = gelu(u)
        out, ln2 = layer_norm(h1 + a @ p[pre + "wf2"] + p[pre + "bf2"], p[pre + "ln2_g"], p[pre + "ln2_b"])
        caches.append((x, q, k, v, attn, ctx, h1, u, a, t, ln1, ln2))
        x = out
    cls = x[:, 0, :]
    pred = 1.0 / (1.0 + np.exp(-((cls @ p["head_w"]).ravel() + p["head_b"][0])))
    residual = pred - labels
    loss = float((weights * residual**2).sum() / weights.sum())

    grads = {key: np.zeros_like(val) for key, val in p.items()}
    dlogits = 2.0 * weights * residual / weights.sum() * pred * (1.0 - pred)
    grads["head_w"] += cls.T @ dlogits[:, None]
    grads["head_b"] += dlogits.sum()
    dx = np.zeros_like(x)
    dx[:, 0, :] = dlogits[:, None] * p["head_w"].ravel()[None, :]
    for layer in reversed(range(cfg.n_layers)):
        pre = f"l{layer}."
        x_in, q, k, v, attn, ctx, h1, u, a, t, ln1, ln2 = caches[layer]
        dr2, grads[pre + "ln2_g"], grads[pre + "ln2_b"] = layer_norm_backward(dx, ln2)
        grads[pre + "wf2"] = a.reshape(-1, a.shape[-1]).T @ dr2.reshape(-1, d)
        grads[pre + "bf2"] = dr2.sum(axis=(0, 1))
        du = (dr2 @ p[pre + "wf2"].T) * gelu_grad(u, t)
        grads[pre + "wf1"] = h1.reshape(-1, d).T @ du.reshape(-1, du.shape[-1])
        grads[pre + "bf1"] = du.sum(axis=(0, 1))
        dr1, grads[pre + "ln1_g"], grads[pre + "ln1_b"] = layer_norm_backward(
            dr2 + du @ p[pre + "wf1"].T, ln1
        )
        grads[pre + "wo"] = ctx.reshape(-1, d).T @ dr1.reshape(-1, d)
        grads[pre + "bo"] = dr1.sum(axis=(0, 1))
        dctx = heads(dr1 @ p[pre + "wo"].T)
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) / np.sqrt(d_head)
        dx = dr1.copy()
        for name, dm in (("wq", merge(dscores @ k)),
                         ("wk", merge(dscores.transpose(0, 1, 3, 2) @ q)),
                         ("wv", merge(attn.transpose(0, 1, 3, 2) @ dctx))):
            grads[pre + name] = x_in.reshape(-1, d).T @ dm.reshape(-1, d)
            grads[pre + name.replace("w", "b")] = dm.sum(axis=(0, 1))
            dx += dm @ p[pre + name].T
    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:l] += dx.sum(axis=0)
    return loss, grads


def all_positions_forward(enc, ids):
    """Reference: every layer, the last one included, run at every position; the
    hidden states of all positions, shape (b, l, d_model)."""
    p, cfg = enc.params, enc.config
    n_heads, d = cfg.n_heads, cfg.d_model
    d_head = d // n_heads
    b, l = ids.shape

    def heads(m):
        return m.reshape(b, l, n_heads, d_head).transpose(0, 2, 1, 3)

    x = p["tok_emb"][ids] + p["pos_emb"][:l][None, :, :]
    for layer in range(cfg.n_layers):
        pre = f"l{layer}."
        q, k, v = (heads(x @ p[pre + "w" + name] + p[pre + "b" + name]) for name in "qkv")
        attn = softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(d_head), axis=-1)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, l, d)
        h1, _ = layer_norm(x + ctx @ p[pre + "wo"] + p[pre + "bo"], p[pre + "ln1_g"], p[pre + "ln1_b"])
        a, _ = gelu(h1 @ p[pre + "wf1"] + p[pre + "bf1"])
        x, _ = layer_norm(h1 + a @ p[pre + "wf2"] + p[pre + "bf2"], p[pre + "ln2_g"], p[pre + "ln2_b"])
    return x


class TestLastLayer:
    @staticmethod
    def encoder(n_layers):
        enc = LogSequenceEncoder(toy_config(n_layers=n_layers, seed=5), vocab_size=4)
        for key in enc.params:
            if key.endswith((".wq", ".wk")):
                enc.params[key] *= 25.0  # attention far from uniform
        return enc

    @staticmethod
    def ids(enc, b, length, seed=0):
        ids = np.random.default_rng(seed).integers(0, n_tokens(enc.vocab_size, enc.config), size=(b, length))
        ids[:, 0] = CLS_TOKEN
        return ids

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_cls_row_matches_an_all_positions_forward(self, n_layers):
        enc = self.encoder(n_layers)
        for length in (1, 3, 7, 12, 31):
            ids = self.ids(enc, 5, length, seed=length)
            hidden, _ = enc._forward(ids)
            assert hidden.shape == (5, 1, enc.config.d_model)
            reference = all_positions_forward(enc, ids)
            assert np.max(np.abs(hidden[:, 0] - reference[:, 0])) <= 1e-12, length

    def test_only_the_last_layer_runs_at_the_cls_row_alone(self):
        enc = self.encoder(3)
        b, l, n_heads, d = 4, 9, enc.config.n_heads, enc.config.d_model
        _, caches = enc._forward(self.ids(enc, b, l))
        for cache in caches[:-1]:
            assert cache["attn"].shape == (b, n_heads, l, l)
            assert cache["h1"].shape == (b, l, d)
        last = caches[-1]
        assert last["attn"].shape == (b, n_heads, 1, l)
        assert last["h1"].shape == (b, 1, d)
        assert last["k"].shape == last["v"].shape == (b, n_heads, l, d // n_heads)


def scaled_encoder():
    """A toy encoder with weights scaled up so that gradients are well conditioned."""
    cfg = toy_config(d_model=8, n_layers=2, n_heads=2, max_len=12, freq_buckets=4, seed=3)
    enc = LogSequenceEncoder(cfg, vocab_size=3)
    rng = np.random.default_rng(0)
    for key, value in enc.params.items():
        if "ln" not in key:
            enc.params[key] = value * 20.0 if value.size > 1 else value
    enc.params["head_w"] = 0.5 * rng.standard_normal((8, 1))
    return enc


def by_length(enc, windows, weights):
    """(ids, labels, weights) per length group of distinct windows: row r is window r."""
    labels = np.array([w.label for w in windows])
    groups = groups_of(enc, windows)
    assert groups.rows.tolist() == list(range(len(windows)))
    return [(ids, labels[rows], weights[rows]) for rows, ids in groups.by_length]


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        # two windows of different lengths, so two length groups add into the gradient
        enc = scaled_encoder()
        windows = [window([0, 2], [3, 1], label=0.25), window([1], [5], label=0.9)]
        _, grads = enc.loss_and_grads(by_length(enc, windows, np.ones(len(windows))))
        y = np.array([w.label for w in windows])

        def loss_only():
            pred = enc.score(np.vstack([alone(enc, w) for w in windows]))
            return float(np.mean((pred - y) ** 2))

        eps = 1e-4
        for key, arr in enc.params.items():
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                plus = loss_only()
                arr[idx] = orig - eps
                minus = loss_only()
                arr[idx] = orig
                numeric[idx] = (plus - minus) / (2 * eps)
                it.iternext()
            a_norm, n_norm = np.linalg.norm(grads[key]), np.linalg.norm(numeric)
            if max(a_norm, n_norm) < 1e-7:
                continue  # structurally zero gradient (e.g. key bias: softmax shift invariance)
            rel = np.linalg.norm(grads[key] - numeric) / max(a_norm, n_norm)
            assert rel < 1e-3, f"{key}: rel err {rel}"

    def test_length_groups_match_one_padded_batch(self):
        enc = scaled_encoder()
        windows = [
            window([0, 1, 2], [1, 4, 9], label=0.3),
            window([1], [2], label=0.9),
            window([2, 0], [5, 1], label=0.1),
            window([], [], label=0.0),
            window([0], [3], label=0.6),
            window([1, 2], [1, 1], label=0.45),
        ]
        weights = np.array([3.0, 1.0, 7.0, 2.0, 5.0, 1.0])
        groups = by_length(enc, windows, weights)
        assert [ids.shape[1] for ids, _, _ in groups] == [3, 5, 7]
        loss, grads = enc.loss_and_grads(groups)
        ref_loss, ref_grads = padded_loss_and_grads(
            enc, [tokens_of(w, enc.config) for w in windows],
            np.array([w.label for w in windows]), weights,
        )
        assert abs(loss - ref_loss) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            assert np.max(np.abs(grads[key] - ref_grads[key])) <= 1e-12, key


class TestPrecision:
    WINDOWS = [
        window([0, 1, 2], [1, 4, 9], label=0.3),
        window([1], [2], label=0.9),
        window([2, 0], [5, 1], label=0.1),
        window([], [], label=0.0),
        window([0], [3], label=0.6),
        window([1, 2], [1, 1], label=0.45),
    ]
    WEIGHTS = np.array([3.0, 1.0, 7.0, 2.0, 5.0, 1.0])

    def encoder(self):
        enc = LogSequenceEncoder(toy_config(seed=4), vocab_size=3)
        enc.params["head_w"] = 0.5 * np.random.default_rng(0).standard_normal((16, 1))
        return enc

    @staticmethod
    def as_float32(enc, groups):
        enc.params = {key: value.astype(np.float32) for key, value in enc.params.items()}
        return [(ids, y.astype(np.float32), w.astype(np.float32)) for ids, y, w in groups]

    def test_float32_gradients_agree_with_float64(self):
        enc = self.encoder()
        groups = by_length(enc, self.WINDOWS, self.WEIGHTS)
        loss, grads = enc.loss_and_grads(groups)
        loss32, grads32 = enc.loss_and_grads(self.as_float32(enc, groups))
        # float32 keeps about 7 digits; 1e-3 is the finite-difference checks' tolerance
        assert abs(loss32 - loss) <= 1e-3 * loss
        for key, g in grads.items():
            if np.linalg.norm(g) < 1e-7:
                continue  # structurally zero (the key biases): float32 leaves rounding noise
            rel = np.linalg.norm(grads32[key] - g) / np.linalg.norm(g)
            assert rel < 1e-3, f"{key}: rel err {rel}"

    def test_a_float32_pass_keeps_every_array_in_float32(self):
        enc = self.encoder()
        groups = self.as_float32(enc, by_length(enc, self.WINDOWS, self.WEIGHTS))
        _, grads = enc.loss_and_grads(groups)
        assert {key: g.dtype for key, g in grads.items()} == {key: np.float32 for key in grads}
        hidden, caches = enc._forward(groups[-1][0])
        cached = [a for cache in caches for value in cache.values()
                  for a in (value if isinstance(value, tuple) else (value,))]
        assert {a.dtype for a in [hidden, *cached]} == {np.dtype(np.float32)}
        emb = embed_windows(enc, groups_of(enc, self.WINDOWS))
        assert emb.dtype == enc.score(emb).dtype == np.float32

    def test_training_runs_in_float32(self):
        encoder = train(separable_corpus(4), toy_config(epochs=3))
        assert {value.dtype for value in encoder.params.values()} == {np.dtype(np.float32)}

    def test_score_saturates_without_overflow(self):
        # 1 / (1 + exp(-x)) overflows in float32 below about -88
        enc = self.encoder()
        enc.params = {key: value.astype(np.float32) for key, value in enc.params.items()}
        enc.params["head_b"][0] = -200.0
        assert np.array_equal(enc.score(np.zeros((2, 16), np.float32)), [0.0, 0.0])


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_np_var_form_bitwise(self, dtype):
        rng = np.random.default_rng(0)
        for shape in [(167, 7, 64), (167, 1, 64), (5, 3, 16), (4, 33), (2, 9, 128)]:
            x = (3.0 * rng.standard_normal(shape) + 1.5).astype(dtype)
            gamma = rng.standard_normal(shape[-1]).astype(dtype)
            beta = rng.standard_normal(shape[-1]).astype(dtype)
            mu = x.mean(axis=-1, keepdims=True)
            inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
            xhat = (x - mu) * inv_std
            out, cache = layer_norm(x, gamma, beta)
            assert out.dtype == dtype
            assert np.array_equal(out, gamma * xhat + beta), shape
            for got, want in zip(cache, (xhat, inv_std, gamma)):
                assert got.dtype == dtype and np.array_equal(got, want), shape


class TestGelu:
    X = np.linspace(-6.0, 6.0, 241)

    def test_output_matches_the_closed_form_bitwise(self):
        x = self.X
        c, a = np.sqrt(2.0 / np.pi), 0.044715
        out, t = gelu(x)
        assert np.array_equal(out, 0.5 * x * (1.0 + np.tanh(c * (x + a * x**3))))
        assert np.array_equal(t, np.tanh(c * (x + a * x**3)))

    def test_grad_from_cached_tanh_matches_finite_differences(self):
        x, eps = self.X, 1e-6
        _, t = gelu(x)
        numeric = (gelu(x + eps)[0] - gelu(x - eps)[0]) / (2 * eps)
        assert np.allclose(gelu_grad(x, t), numeric, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestSigmoid:
    def test_matches_scipy_expit_within_a_few_ulps_in_the_input_dtype(self, dtype):
        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-40.0, 40.0, 8001), 10.0 * rng.standard_normal(10_000)])
        x = x.astype(dtype)
        out, want = sigmoid(x), expit(x)
        assert out.dtype == dtype
        assert np.all(np.abs(out - want) <= 4 * np.spacing(want))

    def test_saturates_without_a_warning(self, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-1e4, 1e4], dtype))
        assert out.dtype == dtype and np.array_equal(out, [0.0, 1.0])


class TestAdam:
    def test_in_place_steps_equal_the_textbook_expressions_bitwise(self):
        rng = np.random.default_rng(0)
        shapes = {"w": (5, 3), "b": (3,), "s": (1,)}
        params = {key: rng.standard_normal(shape) for key, shape in shapes.items()}
        expected = {key: value.copy() for key, value in params.items()}
        optimizer = Adam(params, lr=0.02)
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        m = {key: np.zeros(shape) for key, shape in shapes.items()}
        v = {key: np.zeros(shape) for key, shape in shapes.items()}
        for t in range(1, 6):
            grads = {key: rng.standard_normal(shape) for key, shape in shapes.items()}
            optimizer.step(grads)
            for key, g in grads.items():
                m[key] = b1 * m[key] + (1 - b1) * g
                v[key] = b2 * v[key] + (1 - b2) * g * g
                m_hat = m[key] / (1 - b1**t)
                v_hat = v[key] / (1 - b2**t)
                expected[key] -= lr * (m_hat / (np.sqrt(v_hat) + eps))
                assert np.array_equal(params[key], expected[key]), (t, key)
                assert np.array_equal(optimizer.m[key], m[key]), (t, key)
                assert np.array_equal(optimizer.v[key], v[key]), (t, key)


class TestEmbeddings:
    def test_identical_windows_identical_rows(self):
        windows = [window([0], [2]), window([0], [2])]
        encoder = train(windows + [window([1], [1], label=1.0)], toy_config(epochs=10))
        emb = embed_windows(encoder, groups_of(encoder, windows))
        assert np.array_equal(emb[0], emb[1])

    def test_shape_contract(self):
        windows = separable_corpus(4)
        encoder = train(windows, toy_config(epochs=5))
        emb = embed_windows(encoder, groups_of(encoder, windows))
        assert emb.shape == (len(windows), encoder.config.d_model)

    def test_trained_embeddings_separate_keyword_windows(self):
        windows = separable_corpus()
        encoder = train(windows, toy_config(epochs=250))
        emb = embed_windows(encoder, groups_of(encoder, windows))
        labels = np.array([w.label for w in windows])
        pos = emb[labels == 1.0].mean(axis=0)
        neg = emb[labels == 0.0].mean(axis=0)
        cos = pos @ neg / (np.linalg.norm(pos) * np.linalg.norm(neg))
        assert cos < 0.99

    def test_distinct_sequences_embed_like_every_window_run_alone(self):
        enc = LogSequenceEncoder(toy_config(seed=4), vocab_size=8)
        windows = [
            window([0], [1]),
            window([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
            window([0], [1]),
            window([], []),
            window([3, 2], [9, 1]),
            window([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
            window(list(range(8)), [1] * 8),
            window([4, 6], [2, 2]),
            window([0], [1], label=1.0),  # the tokens of window 0 under another label
        ]
        emb = embed_windows(enc, groups_of(enc, windows))
        # the reference runs each window by itself, at its own length
        reference = np.vstack([alone(enc, w) for w in windows])
        assert emb.shape == (len(windows), enc.config.d_model)
        assert np.array_equal(emb, reference)
        order = np.random.default_rng(0).permutation(len(windows))
        shuffled = groups_of(enc, [windows[i] for i in order])
        assert np.array_equal(embed_windows(enc, shuffled), reference[order])

    def test_a_window_embeds_the_same_beside_a_longer_one(self):
        enc = LogSequenceEncoder(toy_config(seed=4), vocab_size=8)
        short = [window([0], [1]), window([3, 2], [9, 1]), window([], [])]
        longest = window(list(range(8)), [1] * 8)
        for w in short:
            beside = embed_windows(enc, groups_of(enc, [w, longest]))[0]
            assert np.array_equal(embed_windows(enc, groups_of(enc, [w]))[0], beside)

    def test_order_sensitivity_at_random_init(self):
        cfg = toy_config(seed=9)
        enc = LogSequenceEncoder(cfg, vocab_size=5)
        fwd = embed_windows(enc, groups_of(enc, [window([0, 1], [1, 1]), window([1, 0], [1, 1])]))
        assert not np.allclose(fwd[0], fwd[1])


class TestReduceToSeries:
    def make_inputs(self):
        rng = np.random.default_rng(5)
        n_entities, n_windows = 3, 8
        n_cells = n_entities * n_windows
        windows = WindowTable(
            n_entities, n_windows, np.zeros(n_cells + 1), [], [], np.zeros(n_cells),
        )
        scores = rng.standard_normal(n_cells)
        kpi = rng.standard_normal(n_windows)
        names = [f"e{i}" for i in range(n_entities)]
        return scores, windows, kpi, names

    def test_panel_shape(self):
        scores, windows, kpi, names = self.make_inputs()
        panel = reduce_to_series(scores, windows, kpi, names)
        assert panel.values.shape == (len(names) + 1, len(kpi))
        assert np.allclose(panel.values[-1], kpi)
        assert panel.node_names == names + ["kpi"]

    def test_each_cell_holds_the_score_of_its_window(self):
        scores, windows, kpi, names = self.make_inputs()
        panel = reduce_to_series(scores, windows, kpi, names)
        for cell, score in enumerate(scores):
            assert panel.values[cell // windows.n_windows, cell % windows.n_windows] == score

    @pytest.mark.parametrize("cut", ["kpi", "names"])
    def test_the_grid_must_match_the_entities_and_the_kpi(self, cut):
        scores, windows, kpi, names = self.make_inputs()
        kpi, names = (kpi[:-1], names) if cut == "kpi" else (kpi, names[:-1])
        with pytest.raises(ValueError, match="the windows cover 3 entities x 8 windows"):
            reduce_to_series(scores, windows, kpi, names)
