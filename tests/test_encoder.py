import json

import numpy as np
import pytest

from mmrca.encoder import (
    CLS_TOKEN,
    EMPTY_TOKEN,
    EncoderConfig,
    LogSequenceEncoder,
    LogTokenizer,
    embed_windows,
    freq_bucket,
    length_groups,
    load_encoder,
    reduce_to_series,
    save_encoder,
    train_log_encoder,
    vocabulary_hash,
)
from mmrca.logs import EMPTY_TEMPLATE_ID, LogSequenceWindow, LogTemplate
from mmrca.nn import Adam, gelu, gelu_grad, layer_norm, layer_norm_backward, softmax


def toy_config(**overrides):
    base = dict(d_model=16, n_layers=2, n_heads=2, max_len=32, lr=0.03, epochs=50,
                freq_buckets=16, seed=0)
    base.update(overrides)
    return EncoderConfig(**base)


def window(templates, frequencies, label=0.0, entity=0, index=0):
    return LogSequenceWindow(entity=entity, window_index=index, templates=templates,
                             frequencies=frequencies, label=label)


def sequences_of(enc, windows):
    return [enc.tokenizer.tokenize(w) for w in windows]


def train(windows, config, vocab_size=None):
    """train_log_encoder on windows tokenized as the pipeline does; by default the
    vocabulary is the templates the windows use."""
    if vocab_size is None:
        vocab_size = 1 + max(
            (t for w in windows for t in w.templates if t != EMPTY_TEMPLATE_ID), default=-1
        )
    sequences = [LogTokenizer(vocab_size, config).tokenize(w) for w in windows]
    return train_log_encoder(sequences, [w.label for w in windows], config, vocab_size)


class TestConfigValidation:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=10, n_heads=4)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            EncoderConfig(epochs=0)


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

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            freq_bucket(0, 16)


class TestTokenizer:
    def test_single_template(self):
        tok = LogTokenizer(vocab_size=4, config=toy_config())
        seq = tok.tokenize(window([1], [1]))
        assert seq.tokens == [CLS_TOKEN, tok.template_token(1), tok.bucket_token(1)]

    def test_empty_window_uses_reserved_tokens(self):
        tok = LogTokenizer(vocab_size=4, config=toy_config())
        seq = tok.tokenize(window([EMPTY_TEMPLATE_ID], [1]))
        assert seq.tokens == [CLS_TOKEN, EMPTY_TOKEN, tok.bucket_token(0)]

    def test_frequencies_interleaved(self):
        tok = LogTokenizer(vocab_size=4, config=toy_config())
        seq = tok.tokenize(window([0, 2], [1, 1024]))
        assert seq.tokens == [
            CLS_TOKEN,
            tok.template_token(0), tok.bucket_token(1),
            tok.template_token(2), tok.bucket_token(11),
        ]

    def test_truncation_counted_and_pairs_kept_whole(self):
        tok = LogTokenizer(vocab_size=50, config=toy_config(max_len=8))
        seq = tok.tokenize(window(list(range(10)), [1] * 10))
        assert len(seq.tokens) == 1 + 2 * 3  # CLS + 3 whole pairs
        assert seq.truncated

    def test_all_ids_within_total_vocabulary(self):
        cfg = toy_config()
        tok = LogTokenizer(vocab_size=7, config=cfg)
        seq = tok.tokenize(window([0, 6], [3, 9]))
        assert all(0 <= t < tok.total_tokens for t in seq.tokens)

    def test_unknown_template_rejected(self):
        tok = LogTokenizer(vocab_size=3, config=toy_config())
        with pytest.raises(ValueError):
            tok.tokenize(window([5], [1]))


class TestSequenceContract:
    def test_must_start_with_cls(self):
        from mmrca.encoder import TokenSequence

        with pytest.raises(ValueError):
            TokenSequence(tokens=[5, 1], max_len=8)


def separable_corpus(n_each=30):
    """Labels exactly determined by the presence of template 0 (the keyword one)."""
    windows = []
    for i in range(n_each):
        windows.append(window([0], [2 + i % 3], label=1.0, entity=0, index=i))
        windows.append(window([1 + i % 3], [1 + i % 4], label=0.0, entity=1, index=i))
    return windows


class TestTraining:
    def test_constant_zero_labels_reach_tiny_mse(self):
        windows = [window([i % 3], [1 + i % 5], label=0.0, entity=0, index=i) for i in range(40)]
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
        windows = [window(list(range(10)), [1] * 10, index=i) for i in range(3)]
        windows += [window([i % 3], [1], index=3 + i) for i in range(5)]
        encoder = train(windows, toy_config(max_len=8, epochs=2), vocab_size=10)
        assert encoder.diagnostics["truncated_windows"] == 3
        embed_windows(encoder, sequences_of(encoder, windows))
        assert encoder.diagnostics["truncated_windows"] == 3

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

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError):
            train_log_encoder([], [], toy_config(), vocab_size=1)


def alone(enc, w):
    """[CLS] state of one window run by itself, at its own length."""
    return enc._forward(np.array([enc.tokenizer.tokenize(w).tokens]))[0][0, 0, :]


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
    labels = np.array([w.label for w in windows])
    return [(ids, labels[rows], weights[rows])
            for rows, ids in length_groups([enc.tokenizer.tokenize(w).tokens for w in windows])]


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
            window([EMPTY_TEMPLATE_ID], [1], label=0.0),
            window([0], [3], label=0.6),
            window([1, 2], [1, 1], label=0.45),
        ]
        weights = np.array([3.0, 1.0, 7.0, 2.0, 5.0, 1.0])
        groups = by_length(enc, windows, weights)
        assert [ids.shape[1] for ids, _, _ in groups] == [3, 5, 7]
        loss, grads = enc.loss_and_grads(groups)
        ref_loss, ref_grads = padded_loss_and_grads(
            enc, [enc.tokenizer.tokenize(w).tokens for w in windows],
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
        window([EMPTY_TEMPLATE_ID], [1], label=0.0),
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
        emb = enc.embed(sequences_of(enc, self.WINDOWS))
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
        emb = embed_windows(encoder, sequences_of(encoder, windows))
        assert np.array_equal(emb[0], emb[1])

    def test_shape_contract(self):
        windows = separable_corpus(4)
        encoder = train(windows, toy_config(epochs=5))
        emb = embed_windows(encoder, sequences_of(encoder, windows))
        assert emb.shape == (len(windows), encoder.config.d_model)

    def test_trained_embeddings_separate_keyword_windows(self):
        windows = separable_corpus()
        encoder = train(windows, toy_config(epochs=250))
        emb = embed_windows(encoder, sequences_of(encoder, windows))
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
            window([EMPTY_TEMPLATE_ID], [1]),
            window([3, 2], [9, 1]),
            window([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
            window(list(range(8)), [1] * 8),
            window([4, 6], [2, 2]),
        ]
        emb = enc.embed(sequences_of(enc, windows))
        # the reference runs each window by itself, at its own length
        reference = np.vstack([alone(enc, w) for w in windows])
        assert emb.shape == (len(windows), enc.config.d_model)
        assert np.array_equal(emb, reference)
        order = np.random.default_rng(0).permutation(len(windows))
        shuffled = sequences_of(enc, [windows[i] for i in order])
        assert np.array_equal(enc.embed(shuffled), reference[order])

    def test_a_window_embeds_the_same_beside_a_longer_one(self):
        enc = LogSequenceEncoder(toy_config(seed=4), vocab_size=8)
        short = [window([0], [1]), window([3, 2], [9, 1]), window([EMPTY_TEMPLATE_ID], [1])]
        longest = window(list(range(8)), [1] * 8)
        for w in short:
            beside = enc.embed(sequences_of(enc, [w, longest]))[0]
            assert np.array_equal(enc.embed(sequences_of(enc, [w]))[0], beside)

    def test_order_sensitivity_at_random_init(self):
        cfg = toy_config(seed=9)
        enc = LogSequenceEncoder(cfg, vocab_size=5)
        fwd = enc.embed(sequences_of(enc, [window([0, 1], [1, 1]), window([1, 0], [1, 1])]))
        assert not np.allclose(fwd[0], fwd[1])


class TestReduceToSeries:
    def make_inputs(self):
        rng = np.random.default_rng(5)
        n_entities, n_windows = 3, 8
        windows = [(e, w) for e in range(n_entities) for w in range(n_windows)]
        scores = rng.standard_normal(len(windows))
        kpi = rng.standard_normal(n_windows)
        return scores, windows, n_entities, kpi

    def test_panel_shape(self):
        scores, window_map, n_entities, kpi = self.make_inputs()
        panel = reduce_to_series(scores, window_map, n_entities, kpi)
        assert panel.values.shape == (n_entities + 1, len(kpi))
        assert np.allclose(panel.values[-1], kpi)

    def test_each_cell_holds_the_score_of_its_window(self):
        scores, window_map, n_entities, kpi = self.make_inputs()
        order = np.random.default_rng(6).permutation(len(window_map))
        panel = reduce_to_series(scores[order], [window_map[i] for i in order], n_entities, kpi)
        for score, (entity, index) in zip(scores, window_map):
            assert panel.values[entity, index] == score

    def test_grid_must_be_covered(self):
        scores, window_map, n_entities, kpi = self.make_inputs()
        with pytest.raises(ValueError):
            reduce_to_series(scores[:-1], window_map[:-1], n_entities, kpi)

    def test_duplicates_rejected(self):
        scores, window_map, n_entities, kpi = self.make_inputs()
        window_map[1] = window_map[0]
        with pytest.raises(ValueError):
            reduce_to_series(scores, window_map, n_entities, kpi)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        windows = separable_corpus(6)
        encoder = train(windows, toy_config(epochs=20))
        vocabulary = [LogTemplate(i, f"pattern {chr(97 + i)}") for i in range(4)]
        ckpt, manifest = tmp_path / "enc.npz", tmp_path / "enc.json"
        save_encoder(encoder, ckpt, manifest, vocabulary)
        restored = load_encoder(ckpt, manifest)
        for key in encoder.params:
            assert np.array_equal(restored.params[key], encoder.params[key])
        assert restored.config == encoder.config

    def test_a_float64_checkpoint_loads_and_embeds_in_float64(self, tmp_path):
        encoder = LogSequenceEncoder(toy_config(), vocab_size=4)
        vocabulary = [LogTemplate(i, f"pattern {chr(97 + i)}") for i in range(4)]
        ckpt, manifest = tmp_path / "enc.npz", tmp_path / "enc.json"
        save_encoder(encoder, ckpt, manifest, vocabulary)
        restored = load_encoder(ckpt, manifest)
        sequences = sequences_of(restored, separable_corpus(2))
        emb = restored.embed(sequences)
        assert emb.dtype == np.float64
        assert np.array_equal(emb, encoder.embed(sequences))

    def test_checkpoint_from_another_save_is_rejected(self, tmp_path, monkeypatch):
        # a save that fails between its two files leaves the new checkpoint
        # beside the manifest of the save before it
        windows = separable_corpus(3)
        vocabulary = [LogTemplate(i, f"pattern {chr(97 + i)}") for i in range(4)]
        ckpt, manifest = tmp_path / "enc.npz", tmp_path / "enc.json"
        save_encoder(train(windows, toy_config(d_model=8, epochs=2)),
                     ckpt, manifest, vocabulary)

        def dump_fails(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", dump_fails)
        with pytest.raises(OSError):
            save_encoder(train(windows, toy_config(d_model=16, epochs=2)),
                         ckpt, manifest, vocabulary)
        monkeypatch.undo()
        with np.load(ckpt) as checkpoint:
            assert checkpoint["tok_emb"].shape[1] == 16
        assert json.loads(manifest.read_text())["config"]["d_model"] == 8
        with pytest.raises(ValueError, match="'tok_emb'"):
            load_encoder(ckpt, manifest)

    def test_vocabulary_hash_changes_with_content(self):
        a = [LogTemplate(0, "x")]
        b = [LogTemplate(0, "y")]
        assert vocabulary_hash(a) != vocabulary_hash(b)
