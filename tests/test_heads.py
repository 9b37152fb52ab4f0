"""Heads: normalization, the reduction equivalences, convexity, and
gradients of the depth-attention parameters."""
import copy

import numpy as np
import pytest
from oracles import forced_depth_params, mhmla_reference, pair_part

from gedlab.encoder import INIT_STD, ModelConfig
from gedlab.heads import (
    AttentionRecord, AvglHeadParams, FinalHeadParams, avgl_forward,
    draw_head_params, final_layer_forward, layer_attention_weights,
    mhmla_forward,
)
from gedlab.model import alloc_model
from gedlab.tensor import (
    Tensor, cross_entropy, finite_diff_check, no_grad, reset_graph,
)


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def cfg_for(head_type="mhmla", **overrides) -> ModelConfig:
    base = dict(n_layers=3, hidden=8, self_attn_heads=2, ffn_dim=16,
                layer_attn_heads=2, vocab_size=20, max_len=12,
                dropout=0.0, attn_dropout=0.0, head_type=head_type)
    base.update(overrides)
    return ModelConfig(**base)


def drawn_head(cfg, rng, init_std=INIT_STD):
    """A zeroed model of cfg with fresh draws in its head tensors."""
    model = alloc_model(cfg)
    draw_head_params(model.head, cfg, rng, init_std)
    return model


def head_named(model):
    return [(n, p) for n, p in model.named
            if n.startswith("head.")]


def random_states(rng, cfg, n_tokens=5):
    return [Tensor(rng.normal(size=(n_tokens, cfg.hidden)))
            for _ in range(cfg.n_layers)]


class TestShapes:
    def test_probs_shape_and_rows_sum(self, rng):
        # the head returns class logits, whose softmax the loss takes;
        # each token's weights over layers are a distribution per head
        cfg = cfg_for()
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        with no_grad():
            logits, record = mhmla_forward(states, params, cfg)
        assert logits.shape == (5, 2)
        assert np.all(np.isfinite(logits.data))
        assert record.weights.shape == (5, cfg.layer_attn_heads, cfg.n_layers)
        assert np.allclose(record.weights.sum(axis=2), 1.0, atol=1e-12)

    @pytest.mark.parametrize("j", [1, 8])
    def test_head_count_degeneracy(self, rng, j):
        cfg = cfg_for(layer_attn_heads=j)
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        with no_grad():
            logits, record = mhmla_forward(states, params, cfg)
        assert logits.shape == (5, 2)
        assert record.weights.shape == (5, j, cfg.n_layers)

    def test_rejects_wrong_state_count(self, rng):
        # every head refuses L+1 states (the embedding too) and L-1,
        # naming L
        for head_type, forward in (("final", final_layer_forward),
                                   ("avgl", avgl_forward),
                                   ("mhmla", mhmla_forward)):
            cfg = cfg_for(head_type)
            params = drawn_head(cfg, rng).head
            states = random_states(rng, cfg)
            for wrong in (states + states[:1], states[:-1]):
                with pytest.raises(ValueError,
                                   match="expected L = 3 layer states"):
                    forward(wrong, params, cfg)

    def test_final_head_matches_numpy(self, rng):
        cfg = cfg_for("final")
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        with no_grad():
            logits = final_layer_forward(states, params, cfg)
        assert np.array_equal(
            logits.data, states[-1].data @ params.w_out.data + params.b_out.data)

    def test_avgl_head_matches_numpy(self, rng):
        cfg = cfg_for("avgl")
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        with no_grad():
            logits = avgl_forward(states, params, cfg)
        c = np.mean([states[l].data @ params.w_proj[l].data
                     + params.b_proj[l].data
                     for l in range(cfg.n_layers)], axis=0)
        assert np.allclose(logits.data,
                           c @ params.w_out.data + params.b_out.data,
                           rtol=0.0, atol=1e-13)


class TestAttentionWeights:
    def test_normalized_on_random_inputs(self, rng):
        cfg = cfg_for()
        for _ in range(100):
            params = drawn_head(cfg, rng, init_std=0.5).head
            states = random_states(rng, cfg, n_tokens=int(rng.integers(1, 7)))
            with no_grad():
                record = layer_attention_weights(states, params, cfg)
            sums = record.weights.sum(axis=2)
            assert np.all(np.abs(sums - 1.0) < 1e-9)
            assert np.all(record.weights >= 0.0)

    def test_raising_a_layer_logit_raises_its_weight(self, rng):
        cfg = cfg_for()
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        bumped = copy.deepcopy(params)
        pair_part(bumped, "b_a", 1, 0)[0] += 0.7
        with no_grad():
            before = layer_attention_weights(states, params, cfg).weights
            after = layer_attention_weights(states, bumped, cfg).weights
        assert np.all(after[:, 0, 1] > before[:, 0, 1])
        # the other head is untouched
        assert np.array_equal(after[:, 1, :], before[:, 1, :])

    def test_attention_dropout_zeroes_without_renormalizing(self, rng):
        cfg = cfg_for(attn_dropout=0.5)
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg, n_tokens=40)
        with no_grad():
            record = layer_attention_weights(
                states, params, cfg, np.random.default_rng(5))
        w = record.weights
        assert (w == 0.0).any()
        sums = w.sum(axis=2)
        assert np.abs(sums - 1.0).max() > 1e-3

    def test_record_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="n, J, L"):
            AttentionRecord(np.zeros((3, 4)))


class TestReductions:
    def test_one_hot_forcing_equals_composed_final_head(self, rng):
        cfg = cfg_for()
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        n, J, L = 5, cfg.layer_attn_heads, cfg.n_layers
        one_hot = np.zeros((n, J, L))
        one_hot[:, :, L - 1] = 1.0
        with no_grad():
            forced, record = mhmla_forward(
                states, forced_depth_params(params, keep_layer=L - 1), cfg)
        assert np.array_equal(record.weights, one_hot)
        # concat of last-layer value projections is a single linear map
        w_cat = np.concatenate(
            [pair_part(params, "w_v", L - 1, j) for j in range(J)], axis=1)
        b_cat = np.concatenate(
            [pair_part(params, "b_v", L - 1, j) for j in range(J)])
        composed = FinalHeadParams(
            w_out=Tensor(w_cat @ params.w_out.data),
            b_out=Tensor(b_cat @ params.w_out.data + params.b_out.data))
        final_cfg = cfg_for("final")
        with no_grad():
            direct = final_layer_forward(states, composed, final_cfg)
        assert np.abs(forced.data - direct.data).max() < 1e-10

    def test_uniform_forcing_single_head_equals_avgl(self, rng):
        cfg = cfg_for(layer_attn_heads=1)
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        n, L = 5, cfg.n_layers
        uniform = np.full((n, 1, L), 1.0 / L)
        with no_grad():
            forced, record = mhmla_forward(states, forced_depth_params(params),
                                           cfg)
        assert np.array_equal(record.weights, uniform)
        copied = AvglHeadParams(
            w_proj=[Tensor(pair_part(params, "w_v", l, 0))
                    for l in range(L)],
            b_proj=[Tensor(pair_part(params, "b_v", l, 0))
                    for l in range(L)],
            w_out=params.w_out, b_out=params.b_out)
        with no_grad():
            direct = avgl_forward(states, copied, cfg_for("avgl"))
        assert np.abs(forced.data - direct.data).max() < 1e-12

    def test_tied_params_identical_layers_ignore_score_logits(self, rng):
        cfg = cfg_for()
        params = drawn_head(cfg, rng, init_std=0.5).head
        L, J = cfg.n_layers, cfg.layer_attn_heads
        for l in range(1, L):
            for j in range(J):
                pair_part(params, "w_v", l, j)[...] = pair_part(
                    params, "w_v", 0, j)
                pair_part(params, "b_v", l, j)[...] = pair_part(
                    params, "b_v", 0, j)
        h = Tensor(rng.normal(size=(5, cfg.hidden)))
        states = [h] * L
        other = copy.deepcopy(params)
        for l in range(L):
            for j in range(J):
                pair_part(other, "w_a", l, j)[...] = rng.normal(
                    size=(cfg.key_dim, 1)) * 3
                pair_part(other, "b_a", l, j)[...] = rng.normal(size=1)
        with no_grad():
            a, _ = mhmla_forward(states, params, cfg)
            b, _ = mhmla_forward(states, other, cfg)
        assert np.abs(a.data - b.data).max() < 1e-12


class TestLayout:
    # L, J, key_dim and the value width H // J all differ, so a transposed
    # reshape or a misplaced block cannot cancel out
    @pytest.mark.parametrize("L, J, dk, h", [
        (1, 1, 3, 8), (3, 2, 3, 8), (4, 4, 16, 64), (2, 8, 5, 64)])
    def test_matches_per_pair_reference(self, rng, L, J, dk, h):
        cfg = cfg_for(n_layers=L, layer_attn_heads=J, key_dim=dk, hidden=h)
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg, n_tokens=6)
        want_logits, want_weights = mhmla_reference(states, params, cfg)
        with no_grad():
            logits, record = mhmla_forward(states, params, cfg)
            alone = layer_attention_weights(states, params, cfg)
        assert record.weights.shape == (6, J, L)
        assert np.abs(logits.data - want_logits).max() < 1e-12
        assert np.abs(record.weights - want_weights).max() < 1e-12
        assert np.array_equal(alone.weights, record.weights)


class TestInit:
    @pytest.mark.parametrize("L, J, dk, h", [
        (1, 1, 3, 8), (3, 2, 5, 8), (4, 4, 16, 64)])
    def test_draws_match_per_pair_order(self, L, J, dk, h):
        # per kind, then layer, then head, one [h x H/J], [h x dk] or
        # [dk x 1] draw per pair, as when every pair had its own tensors:
        # a seed gives the same model as it always did
        cfg = cfg_for(n_layers=L, layer_attn_heads=J, key_dim=dk, hidden=h)
        params = drawn_head(cfg, np.random.default_rng(7),
                            init_std=0.5).head
        rng = np.random.default_rng(7)
        drawn = {name: [[rng.normal(0.0, 0.5, size=shape) for _ in range(J)]
                        for _ in range(L)]
                 for name, shape in (("w_v", (h, h // J)), ("w_k", (h, dk)),
                                     ("w_a", (dk, 1)))}
        w_out = rng.normal(0.0, 0.5, size=(h, cfg.n_classes))
        for l in range(L):
            for name in ("w_v", "w_k"):
                assert np.array_equal(getattr(params, name)[l].data,
                                      np.concatenate(drawn[name][l], axis=1))
            assert np.array_equal(params.b_v[l].data, np.zeros(h))
            assert np.array_equal(params.b_k[l].data, np.zeros(J * dk))
        assert np.array_equal(
            params.w_a.data,
            np.concatenate([w for row in drawn["w_a"] for w in row]))
        assert np.array_equal(params.b_a.data, np.zeros(L * J))
        assert np.array_equal(params.w_out.data, w_out)


class TestConvexity:
    def test_head_output_stays_in_value_hull(self, rng):
        cfg = cfg_for()
        params = drawn_head(cfg, rng, init_std=0.5).head
        states = random_states(rng, cfg)
        L, J = cfg.n_layers, cfg.layer_attn_heads
        width = cfg.hidden // J
        with no_grad():
            _, record = mhmla_forward(states, params, cfg)
        for j in range(J):
            v = np.stack([
                states[l].data @ pair_part(params, "w_v", l, j)
                + pair_part(params, "b_v", l, j) for l in range(L)])
            mixed = np.einsum("nl,lnd->nd", record.weights[:, j, :], v)
            lo, hi = v.min(axis=0), v.max(axis=0)
            assert np.all(mixed >= lo - 1e-12)
            assert np.all(mixed <= hi + 1e-12)


class TestGradients:
    def test_mhmla_params_pass_fd(self, rng):
        # the second config has L != J and key_dim != value width, so a
        # square shape cannot hide a transposed reshape
        for cfg in (cfg_for(n_layers=2),
                    cfg_for(n_layers=3, layer_attn_heads=2, key_dim=3)):
            model = drawn_head(cfg, rng, init_std=0.5)
            params = model.head
            states = random_states(rng, cfg, n_tokens=4)
            targets = [0, 1, 1, 0]

            def f():
                logits, _ = mhmla_forward(states, params, cfg)
                return cross_entropy(logits, targets)

            report = finite_diff_check(f, head_named(model), eps=1e-5,
                                       tol=1e-4)
            assert report.passed, (
                f"max rel err {report.max_rel_err:.3e} at "
                f"{report.worst_param}")

    def test_avgl_params_pass_fd(self, rng):
        cfg = cfg_for("avgl", n_layers=2)
        model = drawn_head(cfg, rng, init_std=0.5)
        params = model.head
        states = random_states(rng, cfg, n_tokens=4)
        targets = [1, 0, 0, 1]

        def f():
            return cross_entropy(avgl_forward(states, params, cfg), targets)

        report = finite_diff_check(f, head_named(model), eps=1e-5, tol=1e-4)
        assert report.passed, (
            f"max rel err {report.max_rel_err:.3e} at {report.worst_param}")
