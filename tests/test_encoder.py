"""Encoder: config validation, shapes, masking, pad invariance, and a
finite-difference pass over one block."""
from dataclasses import fields

import numpy as np
import pytest

from gedlab.corpus import PAD_ID
from gedlab.encoder import (
    INIT_STD, ModelConfig, draw_encoder_params, encode_batch,
)
from gedlab.model import alloc_model
from gedlab.tensor import (
    Tensor, add, backward, cross_entropy, encoder_block, finite_diff_check,
    gather_rows, linear, no_grad, reset_graph,
)


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


def tiny_config(**overrides) -> ModelConfig:
    base = dict(n_layers=2, hidden=8, self_attn_heads=2, ffn_dim=16,
                layer_attn_heads=2, vocab_size=20, max_len=12,
                dropout=0.0, attn_dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def drawn_encoder(cfg, rng, init_std=INIT_STD):
    """A zeroed model of cfg with fresh draws in its encoder tensors."""
    model = alloc_model(cfg)
    draw_encoder_params(model.encoder, rng, init_std)
    return model


def encoder_named(model):
    return [(n, p) for n, p in model.named
            if n.startswith(("embed.", "enc."))]


class TestModelConfig:
    def test_key_dim_defaults_to_hidden_over_heads(self):
        assert tiny_config().key_dim == 4

    def test_rejects_indivisible_self_attn(self):
        with pytest.raises(ValueError, match="self_attn_heads"):
            tiny_config(self_attn_heads=3)

    def test_rejects_indivisible_layer_attn(self):
        with pytest.raises(ValueError, match="layer_attn_heads"):
            tiny_config(layer_attn_heads=3)

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError, match="reserved"):
            tiny_config(vocab_size=3)

    def test_rejects_unknown_head(self):
        with pytest.raises(ValueError, match="head_type"):
            tiny_config(head_type="softmax")

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            tiny_config(dropout=1.0)

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config"):
            ModelConfig.from_dict({"n_layer": 2})

    def test_fingerprint_tracks_content(self):
        assert tiny_config().fingerprint() == tiny_config().fingerprint()
        assert tiny_config().fingerprint() != tiny_config(hidden=16).fingerprint()


class TestInit:
    def test_init_statistics(self, rng):
        cfg = tiny_config(hidden=64, ffn_dim=128, vocab_size=500)
        params = drawn_encoder(cfg, rng).encoder
        w = params.layers[0].w_q.data
        assert abs(w.mean()) < 0.005
        assert 0.015 < w.std() < 0.025
        assert np.all(params.layers[0].b_q.data == 0.0)
        assert np.all(params.layers[0].ln1_gain.data == 1.0)
        assert np.all(params.layers[0].ln2_bias.data == 0.0)

    def test_everything_requires_grad(self, rng):
        model = drawn_encoder(tiny_config(), rng)
        assert all(p.requires_grad for _, p in encoder_named(model))


class TestEmbed:
    def test_embedding_is_sum_of_lookups(self, rng):
        # the embedding is not a state: the first state is block 1 over
        # it, bit for bit
        cfg = tiny_config()
        params = drawn_encoder(cfg, rng).encoder
        ids = [5, 9, 5]
        first = encode_batch([ids], params, cfg)[0][0]
        tok = params.token_embedding.data
        pos = params.position_embedding.data
        lp = params.layers[0]
        expect = encoder_block(Tensor(tok[ids] + pos[:3]),
                               *(getattr(lp, f.name) for f in fields(lp)),
                               np.ones((1, 3), dtype=bool), cfg.self_attn_heads)
        assert np.array_equal(first.data, expect.data)

    def test_rejects_long_input(self, rng):
        cfg = tiny_config(max_len=4)
        params = drawn_encoder(cfg, rng).encoder
        with pytest.raises(ValueError, match="max_len"):
            encode_batch([[4] * 5], params, cfg)

    def test_rejects_bad_id(self, rng):
        cfg = tiny_config()
        params = drawn_encoder(cfg, rng).encoder
        with pytest.raises(ValueError, match="out of range"):
            encode_batch([[0, 25]], params, cfg)


class TestEncode:
    def test_state_count_and_shapes(self, rng):
        cfg = tiny_config()
        params = drawn_encoder(cfg, rng).encoder
        states = encode_batch([[4, 5, 6, 7]], params, cfg)[0]
        assert len(states) == cfg.n_layers
        assert all(s.shape == (4, cfg.hidden) for s in states)

    def test_eval_forward_is_deterministic(self, rng):
        cfg = tiny_config()
        params = drawn_encoder(cfg, rng).encoder
        with no_grad():
            a = encode_batch([[4, 5, 6]], params, cfg)[0]
            b = encode_batch([[4, 5, 6]], params, cfg)[0]
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_pad_invariance(self, rng):
        cfg = tiny_config(max_len=16)
        params = drawn_encoder(cfg, rng).encoder
        for trial in range(10):
            n = int(rng.integers(2, 8))
            ids = rng.integers(4, cfg.vocab_size, size=n).tolist()
            n_pad = int(rng.integers(1, 6))
            with no_grad():
                plain = encode_batch([ids], params, cfg)[0]
                padded = encode_batch([ids + [PAD_ID] * n_pad], params, cfg)[0]
            for lvl, (a, b) in enumerate(zip(plain, padded)):
                diff = np.abs(a.data - b.data[:n]).max()
                assert diff < 1e-10, f"trial {trial} layer {lvl}: {diff}"

    def test_batch_matches_single(self, rng):
        cfg = tiny_config(max_len=16)
        params = drawn_encoder(cfg, rng).encoder
        sents = [rng.integers(4, cfg.vocab_size, size=int(rng.integers(2, 9))).tolist()
                 for _ in range(5)]
        with no_grad():
            states, real = encode_batch(sents, params, cfg)
            t_max = max(len(s) for s in sents)
            for b, s in enumerate(sents):
                single = encode_batch([s], params, cfg)[0]
                for lvl in range(cfg.n_layers):
                    rows = states[lvl].data[b * t_max: b * t_max + len(s)]
                    diff = np.abs(rows - single[lvl].data).max()
                    assert diff < 1e-10, f"sentence {b} layer {lvl}: {diff}"
        expect_real = np.concatenate([
            np.arange(t_max) < len(s) for s in sents])
        assert np.array_equal(real, expect_real)

    def test_lonely_real_position_sees_only_itself(self, rng):
        # every key but position 2 is a pad: row 2 of the block output
        # must not change when the pad rows of the input change
        cfg = tiny_config(n_layers=1)
        params = drawn_encoder(cfg, rng).encoder
        ids = [PAD_ID, PAD_ID, 7, PAD_ID, PAD_ID]
        with no_grad():
            out_a = encode_batch([ids], params, cfg)[0][0].data
            params.token_embedding.data[PAD_ID] += rng.normal(size=cfg.hidden)
            out_b = encode_batch([ids], params, cfg)[0][0].data
        assert np.array_equal(out_a[2], out_b[2])
        assert not np.array_equal(out_a[1], out_b[1])

    def test_outputs_stay_finite(self, rng):
        cfg = tiny_config()
        params = drawn_encoder(cfg, rng).encoder
        with no_grad():
            # pads inside the sentence
            states = encode_batch([[4, 0, 5, 0]], params, cfg)[0]
        for s in states:
            assert np.all(np.isfinite(s.data))

    def test_train_mode_consumes_rng(self, rng):
        cfg = tiny_config(dropout=0.2, attn_dropout=0.2)
        params = drawn_encoder(cfg, rng).encoder
        with no_grad():
            a = encode_batch([[4, 5, 6]], params, cfg,
                             np.random.default_rng(3))[0]
            b = encode_batch([[4, 5, 6]], params, cfg,
                             np.random.default_rng(3))[0]
            c = encode_batch([[4, 5, 6]], params, cfg,
                             np.random.default_rng(4))[0]
        assert np.array_equal(a[-1].data, b[-1].data)
        assert not np.array_equal(a[-1].data, c[-1].data)


class TestBlockGradients:
    def test_single_block_passes_fd(self, rng):
        # init_std well above the default keeps every live gradient out
        # of the finite-difference noise floor
        cfg = tiny_config(n_layers=1)
        model = drawn_encoder(cfg, rng, init_std=0.5)
        params = model.encoder
        ids = [4, 9, 13]
        targets = [0, 1, 0]
        out_w = Tensor(rng.normal(0, 0.5, size=(cfg.hidden, 2)),
                       requires_grad=True)
        no_b = Tensor(np.zeros(2))

        def f():
            states = encode_batch([ids], params, cfg)[0]
            return cross_entropy(linear(states[-1], out_w, no_b), targets)

        names = encoder_named(model) + [("out_w", out_w)]
        report = finite_diff_check(f, names, eps=1e-5, tol=1e-4)
        assert report.passed, (
            f"max rel err {report.max_rel_err:.3e} at {report.worst_param}")

    def test_batched_backward_is_sum_of_single_backwards(self, rng):
        # sentences of mixed lengths, so the batch pads all but one
        cfg = tiny_config(max_len=16)
        model = drawn_encoder(cfg, rng, init_std=0.5)
        params = model.encoder
        out_w = Tensor(rng.normal(0, 0.5, size=(cfg.hidden, 2)))
        no_b = Tensor(np.zeros(2))
        sents = [rng.integers(4, cfg.vocab_size, size=n).tolist()
                 for n in (5, 2, 7, 1, 4)]
        targets = [rng.integers(0, 2, size=len(s)) for s in sents]

        def loss_of(state, rows, target):
            return cross_entropy(linear(gather_rows(state, rows), out_w, no_b),
                                 target)

        def grads():
            out = {n: p.grad.copy() for n, p in encoder_named(model)}
            for _, p in encoder_named(model):
                p.zero_grad()
            reset_graph()
            return out

        states, _ = encode_batch(sents, params, cfg)
        t_max = max(map(len, sents))
        total = loss_of(states[-1], range(len(sents[0])), targets[0])
        for b in range(1, len(sents)):
            rows = range(b * t_max, b * t_max + len(sents[b]))
            total = add(total, loss_of(states[-1], rows, targets[b]))
        backward(total)
        batched = grads()
        single = {n: 0.0 for n in batched}
        for s, target in zip(sents, targets):
            backward(loss_of(encode_batch([s], params, cfg)[0][-1],
                             range(len(s)), target))
            for n, g in grads().items():
                single[n] = single[n] + g
        for name, g in batched.items():
            err = np.abs(g - single[name]).max()
            assert err <= 1e-9 * np.abs(single[name]).max(), name
