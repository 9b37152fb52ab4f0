"""Optimizer oracle, the training loop's determinism contract, and the
checkpoint byte format."""
import json
import struct

import numpy as np
import pytest

from gedlab.corpus import (
    PAD_ID, TokenizedSentence, build_corpus, generate_synthetic_pairs,
    pairs_to_labeled,
)
from gedlab.encoder import ModelConfig
from gedlab.model import (
    init_model, named_parameters, parameter_count, predict_word_probs,
    select_first_subtoken_states,
)
from gedlab.tensor import Tensor, no_grad, reset_graph
from gedlab.training import (
    CHECKPOINT_MAGIC, AdamState, CheckpointError, TrainConfig, adam_step,
    batch_loss, batch_word_rows, checkpoint_bytes, label_targets,
    load_checkpoint, save_checkpoint, train,
)


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


def small_corpus(n=12, seed=7, max_len=16):
    pairs = generate_synthetic_pairs(n, seed=seed, error_rate=0.5)
    return build_corpus(pairs_to_labeled(pairs), max_len=max_len)


def config_for(corpus, **overrides) -> ModelConfig:
    base = dict(n_layers=2, hidden=8, self_attn_heads=2, ffn_dim=16,
                layer_attn_heads=2,
                vocab_size=corpus.vocab.n_pieces, max_len=16,
                dropout=0.1, attn_dropout=0.1)
    base.update(overrides)
    return ModelConfig(**base)


class TestTrainConfig:
    def test_defaults(self):
        tc = TrainConfig()
        assert tc.learning_rate == 5e-5
        assert tc.batch_size == 32
        assert tc.epochs == 5
        assert (tc.beta1, tc.beta2, tc.adam_eps) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("bad", [
        dict(learning_rate=0.0), dict(batch_size=0), dict(epochs=0),
        dict(beta1=1.0), dict(beta2=-0.1), dict(adam_eps=0.0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_dict_round_trip(self):
        tc = TrainConfig(learning_rate=1e-3, seed=9)
        assert TrainConfig(**tc.to_dict()) == tc


class TestRowSelection:
    def test_single_subtoken_words_are_identity(self):
        state = Tensor(np.arange(12.0).reshape(4, 3))
        with no_grad():
            out = select_first_subtoken_states(state, [0, 1, 2, 3])
        assert np.array_equal(out.data, state.data)

    def test_picks_first_subtoken_rows(self):
        state = Tensor(np.arange(15.0).reshape(5, 3))
        with no_grad():
            out = select_first_subtoken_states(state, [0, 1, 3])
        assert np.array_equal(out.data, state.data[[0, 1, 3]])

    def test_rejects_bad_indices(self):
        state = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="out of range"):
            select_first_subtoken_states(state, [0, 9])
        with pytest.raises(ValueError, match="strictly increasing"):
            select_first_subtoken_states(state, [0, 2, 2])

    def test_row_count_matches_label_count_corpus_wide(self):
        corpus = small_corpus(n=40)
        state_rows = 64
        for t in corpus.tokenized:
            assert len(t.first_sub_index) == len(t.labels)
            state = Tensor(np.zeros((max(state_rows, len(t.sub_ids)), 2)))
            with no_grad():
                out = select_first_subtoken_states(state, t.first_sub_index)
            assert out.shape[0] == len(t.words)

    def test_batch_rows_offset_by_padded_length(self):
        a = TokenizedSentence(words=["x", "yz"], labels=["c", "i"],
                              sub_ids=[5, 6, 7], first_sub_index=[0, 1])
        b = TokenizedSentence(words=["q"], labels=["c"],
                              sub_ids=[8], first_sub_index=[0])
        rows, targets = batch_word_rows([a, b], padded_len=3)
        assert rows.tolist() == [0, 1, 3]
        assert targets == [0, 1, 0]

    def test_label_targets(self):
        assert label_targets(["c", "i", "c"]) == [0, 1, 0]


def reference_adam_trace(x0, grad_fn, lr, steps,
                         b1=0.9, b2=0.999, eps=1e-8):
    # written independently, plain floats
    x, m, v = x0, 0.0, 0.0
    trace = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x = x - lr * m_hat / (v_hat ** 0.5 + eps)
        trace.append(x)
    return trace


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        p.grad = np.zeros_like(p.data)
        before = p.data.copy()
        adam_step([("p", p)], AdamState(), TrainConfig())
        assert np.array_equal(p.data, before)

    def test_none_gradient_is_skipped(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        adam_step([("p", p)], AdamState(), TrainConfig())
        assert np.array_equal(p.data, np.ones((2, 2)))

    def test_first_step_is_signed_learning_rate(self):
        tc = TrainConfig(learning_rate=0.01)
        for g in (0.37, -41.0, 5e-7):
            p = Tensor(np.array([[2.0]]), requires_grad=True)
            p.grad = np.array([[g]])
            adam_step([("p", p)], AdamState(), tc)
            delta = p.data[0, 0] - 2.0
            expected = -tc.learning_rate * g / (abs(g) + tc.adam_eps)
            assert abs(delta - expected) < 1e-12

    def test_ten_steps_match_reference_trace(self):
        tc = TrainConfig(learning_rate=0.1)
        expected = reference_adam_trace(
            x0=5.0, grad_fn=lambda x: x - 3.0, lr=0.1, steps=10)
        p = Tensor(np.array([[5.0]]), requires_grad=True)
        state = AdamState()
        for want in expected:
            p.grad = p.data - 3.0
            adam_step([("p", p)], state, tc)
            assert abs(p.data[0, 0] - want) < 1e-12

    def test_nan_gradient_aborts_naming_parameter(self):
        p = Tensor(np.ones((2,)), requires_grad=True)
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(FloatingPointError, match="enc.00.attn.w_q"):
            adam_step([("enc.00.attn.w_q", p)], AdamState(), TrainConfig())

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.ones((2,))
        with pytest.raises(ValueError, match="shape"):
            adam_step([("p", p)], AdamState(), TrainConfig())


class TestTrainLoop:
    def tc(self, **overrides):
        base = dict(learning_rate=1e-3, batch_size=4, epochs=2, seed=3)
        base.update(overrides)
        return TrainConfig(**base)

    def test_loss_trace_length_one_sentence(self):
        corpus = small_corpus(n=1)
        result = train(corpus, config_for(corpus), self.tc(epochs=1))
        assert len(result.epoch_losses) == 1
        assert result.n_steps == 1

    def test_losses_nonnegative_and_finite(self):
        corpus = small_corpus()
        result = train(corpus, config_for(corpus), self.tc())
        assert all(l >= 0.0 and np.isfinite(l) for l in result.epoch_losses)
        for _, p in named_parameters(result.model):
            assert np.isfinite(p.data).all()

    def test_same_seed_gives_bit_identical_traces_and_params(self):
        corpus = small_corpus()
        cfg = config_for(corpus)
        a = train(corpus, cfg, self.tc())
        b = train(corpus, cfg, self.tc())
        assert a.epoch_losses == b.epoch_losses
        for (na, pa), (nb, pb) in zip(named_parameters(a.model),
                                      named_parameters(b.model)):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_changes_trace(self):
        corpus = small_corpus()
        cfg = config_for(corpus)
        a = train(corpus, cfg, self.tc(seed=3))
        b = train(corpus, cfg, self.tc(seed=4))
        assert a.epoch_losses != b.epoch_losses

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], ModelConfig(vocab_size=10), self.tc())

    def test_extra_padding_leaves_loss_unchanged(self):
        corpus = small_corpus()
        cfg = config_for(corpus, dropout=0.0, attn_dropout=0.0, max_len=24)
        model = init_model(cfg, np.random.default_rng(11))
        batch = corpus.tokenized[:3]
        padded = [
            TokenizedSentence(words=t.words, labels=t.labels,
                              sub_ids=t.sub_ids + [PAD_ID] * 3,
                              first_sub_index=t.first_sub_index)
            for t in batch
        ]
        with no_grad():
            plain = batch_loss(model, batch).item()
            wide = batch_loss(model, padded).item()
        assert abs(wide - plain) < 1e-10

    def test_model_config_is_used_as_given(self):
        corpus = small_corpus(n=4)
        cfg = config_for(corpus, dropout=0.25, attn_dropout=0.25)
        result = train(corpus, cfg, self.tc(epochs=1))
        assert result.model.config == cfg
        still = train(corpus, config_for(corpus, dropout=0.0,
                                         attn_dropout=0.0), self.tc(epochs=1))
        assert result.epoch_losses != still.epoch_losses


class TestCheckpoints:
    def trained_model(self, seed=5):
        corpus = small_corpus(n=6)
        cfg = config_for(corpus)
        return init_model(cfg, np.random.default_rng(seed)), corpus

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, _ = self.trained_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_parameter_count_and_config(self, tmp_path):
        model, _ = self.trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert parameter_count(loaded) == parameter_count(model)

    def test_predictions_bit_identical_after_second_round_trip(self, tmp_path):
        model, corpus = self.trained_model()
        t = corpus.tokenized[0]
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        once = load_checkpoint(path)
        with no_grad():
            p1, _ = predict_word_probs(once, t.sub_ids, t.first_sub_index)
        save_checkpoint(once, path)
        twice = load_checkpoint(path)
        with no_grad():
            p2, _ = predict_word_probs(twice, t.sub_ids, t.first_sub_index)
        assert np.array_equal(p1.data, p2.data)

    def test_quantization_error_is_small(self, tmp_path):
        model, corpus = self.trained_model()
        t = corpus.tokenized[0]
        path = tmp_path / "m.ckpt"
        with no_grad():
            before, _ = predict_word_probs(model, t.sub_ids, t.first_sub_index)
        save_checkpoint(model, path)
        with no_grad():
            after, _ = predict_word_probs(load_checkpoint(path),
                                          t.sub_ids, t.first_sub_index)
        assert np.abs(after.data - before.data).max() < 1e-4

    def test_bad_magic_rejected(self, tmp_path):
        model, _ = self.trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model, _ = self.trained_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def _split(self, blob):
        fixed = len(CHECKPOINT_MAGIC) + 4
        (hlen,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):fixed])
        header = json.loads(blob[fixed:fixed + hlen].decode())
        return header, blob[fixed + hlen:]

    def _join(self, header, payload):
        head = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode()
        return CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + payload

    def test_missing_manifest_entry_rejected(self, tmp_path):
        model, _ = self.trained_model()
        header, payload = self._split(checkpoint_bytes(model))
        dropped = header["manifest"].pop()
        size = 4 * int(np.prod(dropped["shape"])) if dropped["shape"] else 4
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._join(header, payload[:-size]))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_unknown_parameter_rejected(self, tmp_path):
        model, _ = self.trained_model()
        header, payload = self._split(checkpoint_bytes(model))
        header["manifest"][0]["name"] = "head.bogus"
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match="unknown parameter"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model, _ = self.trained_model()
        header, payload = self._split(checkpoint_bytes(model))
        header["manifest"][0]["shape"] = [1, 1]
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match="mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", [
        "entry-not-object", "shape-null", "manifest-not-list",
        "offset-string", "offset-missing", "float-n-layers"])
    def test_malformed_header_rejected(self, tmp_path, case):
        model, _ = self.trained_model()
        header, payload = self._split(checkpoint_bytes(model))
        entry = header["manifest"][0]
        if case == "entry-not-object":
            header["manifest"][0] = entry["name"]
        elif case == "shape-null":
            entry["shape"] = None
        elif case == "manifest-not-list":
            header["manifest"] = 7
        elif case == "offset-string":
            entry["offset"] = "0"
        elif case == "float-n-layers":
            header["config"]["n_layers"] = float(header["config"]["n_layers"])
        else:
            del entry["offset"]
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match="bad header"):
            load_checkpoint(path)

    def test_trained_model_survives_round_trip(self, tmp_path):
        corpus = small_corpus(n=6)
        cfg = config_for(corpus)
        result = train(corpus, cfg, TrainConfig(
            learning_rate=1e-3, batch_size=4, epochs=1, seed=2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(result.model, path)
        loaded = load_checkpoint(path)
        t = corpus.tokenized[0]
        with no_grad():
            probs, _ = predict_word_probs(loaded, t.sub_ids,
                                          t.first_sub_index)
        assert probs.shape == (len(t.words), 2)
