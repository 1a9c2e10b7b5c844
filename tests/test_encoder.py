import numpy as np
import pytest

from mmrca.encoder import (
    CLS_TOKEN,
    EMPTY_TOKEN,
    EncoderConfig,
    LogSequenceEncoder,
    LogTokenizer,
    embed_windows,
    fit_pca,
    freq_bucket,
    load_encoder,
    reduce_to_series,
    save_encoder,
    train_log_encoder,
    vocabulary_hash,
)
from mmrca.logs import EMPTY_TEMPLATE_ID, LogSequenceWindow, LogTemplate
from mmrca.nn import gelu, gelu_grad


def toy_config(**overrides):
    base = dict(d_model=16, n_layers=2, n_heads=2, max_len=32, lr=0.03, epochs=50,
                freq_buckets=16, seed=0)
    base.update(overrides)
    return EncoderConfig(**base)


def window(templates, frequencies, label=0.0, entity=0, index=0):
    return LogSequenceWindow(entity=entity, window_index=index, templates=templates,
                             frequencies=frequencies, label=label)


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
        assert tok.truncation_count == 1
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
        encoder = train_log_encoder(windows, toy_config(epochs=200))
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

        encoder = train_log_encoder(windows, toy_config(epochs=250))
        assert encoder.history[-1] <= 1e-2

    def test_same_seed_identical_parameters(self):
        windows = separable_corpus(10)
        a = train_log_encoder(windows, toy_config(epochs=30))
        b = train_log_encoder(windows, toy_config(epochs=30))
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_loss_history_recorded(self):
        windows = separable_corpus(5)
        encoder = train_log_encoder(windows, toy_config(epochs=25))
        assert len(encoder.history) == 25

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError):
            train_log_encoder([], toy_config())


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        # 2-window toy; weights scaled up so gradients are well conditioned
        cfg = toy_config(d_model=8, n_layers=2, n_heads=2, max_len=12, freq_buckets=4, seed=3)
        enc = LogSequenceEncoder(cfg, vocab_size=3)
        rng = np.random.default_rng(0)
        for key, value in enc.params.items():
            if "ln" not in key:
                enc.params[key] = value * 20.0 if value.size > 1 else value
        enc.params["head_w"] = 0.5 * rng.standard_normal((8, 1))
        windows = [window([0, 2], [3, 1], label=0.25), window([1], [5], label=0.9)]
        ids, mask = enc.batch(windows)
        y = np.array([w.label for w in windows])
        _, grads = enc.loss_and_grads(ids, mask, y)

        def loss_only():
            hidden, _ = enc._forward(ids, mask)
            logits = (hidden[:, 0, :] @ enc.params["head_w"]).ravel() + enc.params["head_b"][0]
            pred = 1.0 / (1.0 + np.exp(-logits))
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


class TestEmbeddings:
    def test_identical_windows_identical_rows(self):
        windows = [window([0], [2]), window([0], [2])]
        encoder = train_log_encoder(windows + [window([1], [1], label=1.0)], toy_config(epochs=10))
        emb = embed_windows(encoder, windows)
        assert np.array_equal(emb[0], emb[1])

    def test_shape_contract(self):
        windows = separable_corpus(4)
        encoder = train_log_encoder(windows, toy_config(epochs=5))
        emb = embed_windows(encoder, windows)
        assert emb.shape == (len(windows), encoder.config.d_model)

    def test_trained_embeddings_separate_keyword_windows(self):
        windows = separable_corpus()
        encoder = train_log_encoder(windows, toy_config(epochs=250))
        emb = embed_windows(encoder, windows)
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
        ]
        emb = enc.embed(windows)
        # the reference runs each window by itself, padded to the batch's length:
        # padding to a different length moves the last bits of the result
        ids, mask = enc.batch(windows)
        alone = np.vstack([enc._forward(ids[i : i + 1], mask[i : i + 1])[0][:, 0, :]
                           for i in range(len(windows))])
        assert emb.shape == (len(windows), enc.config.d_model)
        assert np.array_equal(emb, alone)
        order = np.random.default_rng(0).permutation(len(windows))
        assert np.array_equal(enc.embed([windows[i] for i in order]), alone[order])

    def test_order_sensitivity_at_random_init(self):
        cfg = toy_config(seed=9)
        enc = LogSequenceEncoder(cfg, vocab_size=5)
        fwd = enc.embed([window([0, 1], [1, 1]), window([1, 0], [1, 1])])
        assert not np.allclose(fwd[0], fwd[1])


class TestPca:
    def test_rank_one_embeddings_recover_axis(self):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal(40)
        axis = np.zeros(6)
        axis[1] = 1.0
        emb = np.outer(coords, axis)
        pca = fit_pca(emb)
        proj = (emb - pca.mean) @ pca.direction
        assert np.allclose(np.abs(pca.direction), axis)
        assert np.allclose(proj, np.sign(pca.direction[1]) * (coords - coords.mean()))

    def test_unit_norm_direction(self):
        rng = np.random.default_rng(1)
        pca = fit_pca(rng.standard_normal((30, 5)))
        assert np.linalg.norm(pca.direction) == pytest.approx(1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((25, 4))
        base = fit_pca(emb)
        shifted = fit_pca(emb + 7.5)
        proj_a = (emb - base.mean) @ base.direction
        proj_b = (emb + 7.5 - shifted.mean) @ shifted.direction
        assert np.allclose(np.abs(proj_a), np.abs(proj_b), atol=1e-10)

    def test_variance_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((60, 7)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05])
        pca = fit_pca(emb)
        proj = (emb - pca.mean) @ pca.direction
        centered = emb - emb.mean(axis=0)
        top_eig = np.linalg.eigvalsh(centered.T @ centered / len(emb))[-1]
        assert proj.var() == pytest.approx(top_eig, abs=1e-8)
        assert pca.explained_variance == pytest.approx(top_eig, abs=1e-8)

    def test_sign_follows_labels(self):
        rng = np.random.default_rng(4)
        coords = rng.standard_normal(50)
        emb = np.outer(coords, [1.0, 0.0, 0.0])
        labels = coords  # anomaly grows with the coordinate
        pca = fit_pca(emb, labels)
        proj = (emb - pca.mean) @ pca.direction
        assert np.corrcoef(proj, labels)[0, 1] > 0

    def test_zero_variance_warns_and_zeroes(self):
        emb = np.ones((10, 3))
        with pytest.warns(UserWarning):
            pca = fit_pca(emb)
        assert np.all(pca.direction == 0.0)


class TestReduceToSeries:
    def make_inputs(self):
        rng = np.random.default_rng(5)
        n_entities, n_windows, d = 3, 8, 4
        windows = [(e, w) for e in range(n_entities) for w in range(n_windows)]
        emb = rng.standard_normal((len(windows), d))
        kpi = rng.standard_normal(n_windows)
        return emb, windows, n_entities, kpi

    def test_panel_shape(self):
        emb, window_map, n_entities, kpi = self.make_inputs()
        panel = reduce_to_series(emb, window_map, n_entities, kpi)
        assert panel.values.shape == (n_entities + 1, len(kpi))
        assert np.allclose(panel.values[-1], kpi)

    def test_grid_must_be_covered(self):
        emb, window_map, n_entities, kpi = self.make_inputs()
        with pytest.raises(ValueError):
            reduce_to_series(emb[:-1], window_map[:-1], n_entities, kpi)

    def test_duplicates_rejected(self):
        emb, window_map, n_entities, kpi = self.make_inputs()
        window_map[1] = window_map[0]
        with pytest.raises(ValueError):
            reduce_to_series(emb, window_map, n_entities, kpi)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        windows = separable_corpus(6)
        encoder = train_log_encoder(windows, toy_config(epochs=20))
        emb = embed_windows(encoder, windows)
        pca = fit_pca(emb, np.array([w.label for w in windows]))
        vocabulary = [LogTemplate(i, f"pattern {chr(97 + i)}") for i in range(4)]
        ckpt, manifest = tmp_path / "enc.npz", tmp_path / "enc.json"
        save_encoder(encoder, ckpt, manifest, vocabulary, pca)
        restored, restored_pca = load_encoder(ckpt, manifest)
        for key in encoder.params:
            assert np.array_equal(restored.params[key], encoder.params[key])
        assert np.array_equal(restored_pca.direction, pca.direction)
        assert restored.config == encoder.config

    def test_vocabulary_hash_changes_with_content(self):
        a = [LogTemplate(0, "x")]
        b = [LogTemplate(0, "y")]
        assert vocabulary_hash(a) != vocabulary_hash(b)
