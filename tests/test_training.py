"""Optimizer oracle, the training loop's determinism contract, and the
checkpoint byte format."""
import json
import struct
import tracemalloc

import numpy as np
import pytest

from gedlab.corpus import (
    PAD_ID, TokenizedSentence, build_corpus, generate_synthetic_pairs,
    pairs_to_labeled,
)
from gedlab.encoder import HEAD_TYPES, ModelConfig, encode_batch
from gedlab.model import (
    forward_batch, head_forward, init_model, named_parameters,
    parameter_shapes, predict_word_probs, word_rows,
)
from gedlab.tensor import (
    Tensor, active_graph, backward, cross_entropy, gather_rows, no_grad,
    reset_graph,
)
from gedlab.training import (
    CHECKPOINT_MAGIC, AdamState, CheckpointError, TrainConfig, adam_step,
    batch_loss, batch_word_rows, checkpoint_bytes, label_targets,
    load_checkpoint, save_checkpoint, train,
)
from oracles import adam_reference


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


def desk_config(**overrides) -> ModelConfig:
    """The CLI's desk model (L=J=4, H=64, key_dim 16) over 40 ids."""
    base = dict(vocab_size=40, key_dim=16, dropout=0.0, attn_dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def desk_batch(rng):
    """16 sentences of 8 to 24 single-piece words."""
    return [TokenizedSentence(words=["w"] * n, labels=["c"] * n,
                              sub_ids=rng.integers(4, 40, size=n).tolist(),
                              first_sub_index=list(range(n)))
            for n in np.linspace(8, 24, 16).astype(int)]


def tape_bytes() -> int:
    """Bytes held by the tape: every node's value plus the arrays its
    backward keeps (an op's saved intermediates live there), each buffer
    counted once.  A view, such as a reshape node's value, counts as
    the array that owns its memory."""
    seen, total = set(), 0
    for node in active_graph().nodes:
        cells = node._backward.__closure__ or ()
        for a in [node.data, *(c.cell_contents for c in cells)]:
            if not isinstance(a, np.ndarray):
                continue
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in seen:
                seen.add(id(a))
                total += a.nbytes
    return total


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
        rows = word_rows([[0, 1, 2, 3]], 4)
        with no_grad():
            out = gather_rows(state, rows)
        assert np.array_equal(out.data, state.data)

    def test_picks_first_subtoken_rows(self):
        assert word_rows([[0, 1, 3]], 5).tolist() == [0, 1, 3]
        assert word_rows([[0, 2], [], [1]], 4).tolist() == [0, 2, 9]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="out of range"):
            word_rows([[0, 9]], 4)
        with pytest.raises(ValueError, match="out of range"):
            word_rows([[0], [-1]], 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            word_rows([[0, 2, 2]], 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            word_rows([[0], [3, 1]], 4)
        # predict_word_probs checks a caller's word starts the same way
        model = init_model(config_for(small_corpus()),
                           np.random.default_rng(0))
        with no_grad(), pytest.raises(ValueError, match="out of range"):
            predict_word_probs(model, [4, 5], [0, 2])

    def test_row_count_matches_label_count_corpus_wide(self):
        corpus = small_corpus(n=40)
        for t in corpus.tokenized:
            assert len(t.first_sub_index) == len(t.labels)
            rows = word_rows([t.first_sub_index], len(t.sub_ids))
            assert rows.size == len(t.words)
        rows, targets = batch_word_rows(corpus.tokenized, 16)
        assert rows.size == len(targets) == sum(
            len(t.words) for t in corpus.tokenized)

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

    @pytest.mark.parametrize("head_type", HEAD_TYPES)
    def test_forward_batch_loss_is_the_unfolded_composition(self, head_type):
        # encode the batch, gather the word rows, run the head: with
        # dropout live, the same ops in the same order give the same
        # loss, bit for bit
        corpus = small_corpus()
        model = init_model(config_for(corpus, head_type=head_type),
                           np.random.default_rng(3))
        batch = corpus.tokenized[:5]

        def unfolded(rng):
            states, _ = encode_batch([t.sub_ids for t in batch],
                                     model.encoder, model.config,
                                     train_mode=True, rng=rng)
            rows, targets = batch_word_rows(batch,
                                            states[0].shape[0] // len(batch))
            probs, _ = head_forward([gather_rows(s, rows) for s in states],
                                    model, train_mode=True, rng=rng)
            return cross_entropy(probs, targets).item()

        probs, _ = forward_batch(model, [t.sub_ids for t in batch],
                                 [t.first_sub_index for t in batch],
                                 train_mode=True,
                                 rng=np.random.default_rng(9))
        targets = label_targets([lab for t in batch for lab in t.labels])
        want = unfolded(np.random.default_rng(9))
        assert cross_entropy(probs, targets).item() == want
        assert batch_loss(model, batch, train_mode=True,
                          rng=np.random.default_rng(9)).item() == want


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

    def test_ten_steps_match_per_tensor_oracle_with_a_skipped_grad(self):
        rng = np.random.default_rng(5)
        shapes = [(3, 5), (5,), (1,)]
        start = [rng.normal(size=s) for s in shapes]
        flat = [(f"p{i}", Tensor(x.copy(), requires_grad=True))
                for i, x in enumerate(start)]
        ref = [(f"p{i}", Tensor(x.copy(), requires_grad=True))
               for i, x in enumerate(start)]
        state, ref_state = AdamState(), AdamState()
        tc = TrainConfig(learning_rate=0.05)
        for step in range(1, 11):
            for (_, p), (_, q) in zip(flat, ref):
                p.grad = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
                q.grad = p.grad.copy()
            if step == 4:
                # p1 fills entries 15..19 of the buffer
                flat[1][1].grad = ref[1][1].grad = None
                held = [a.copy() for a in (flat[1][1].data, state.m[15:20],
                                           state.v[15:20])]
            adam_step(flat, state, tc)
            adam_reference(ref, ref_state, tc)
            for (_, p), (_, q) in zip(flat, ref):
                assert np.array_equal(p.data, q.data), step
            for mine, theirs in ((state.m, ref_state.m), (state.v, ref_state.v)):
                joined = np.concatenate([theirs[n].reshape(-1) for n, _ in ref])
                assert np.array_equal(mine, joined), step
            if step == 4:
                for before, now in zip(held, (flat[1][1].data, state.m[15:20],
                                              state.v[15:20])):
                    assert np.array_equal(before, now)
        assert state.t == ref_state.t == 10

    def test_nonfinite_gradient_writes_nothing(self):
        params = [(name, Tensor(np.ones(shape), requires_grad=True))
                  for name, shape in (("a", (2, 3)), ("b", (4,)), ("c", (1,)))]
        state = AdamState()
        tc = TrainConfig(learning_rate=0.1)
        for _, p in params:
            p.grad = np.full(p.shape, 0.5)
        adam_step(params, state, tc)
        for _, p in params:
            p.grad = np.full(p.shape, -2.0)
        params[2][1].grad = np.array([np.nan])
        before = [p.data.copy() for _, p in params]
        moments = [np.copy(state.m), np.copy(state.v)]
        with pytest.raises(FloatingPointError,
                           match="non-finite gradient in c at step 2"):
            adam_step(params, state, tc)
        assert state.t == 1
        for was, (_, p) in zip(before, params):
            assert np.array_equal(p.data, was)
        assert np.array_equal(state.m, moments[0])
        assert np.array_equal(state.v, moments[1])

    def test_rebound_parameter_rejected(self):
        params = [(name, Tensor(np.ones((2, 2)), requires_grad=True))
                  for name in ("enc.00.ffn.w1", "enc.00.ffn.w2")]
        state = AdamState()
        for _, p in params:
            p.grad = np.ones((2, 2))
        adam_step(params, state, TrainConfig())
        params[1][1].data = params[1][1].data.copy()
        with pytest.raises(ValueError, match="enc.00.ffn.w2"):
            adam_step(params, state, TrainConfig())


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
            train(build_corpus([]), ModelConfig(vocab_size=10), self.tc())

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

    def test_tape_grows_linearly_with_batch_size(self):
        # B=32 is the B=16 batch twice, so the padded length is the
        # same.  An array of [B*T x B*T] on the tape makes the ratio
        # near 4, not 2
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        batch = desk_batch(rng)
        sizes = {}
        for b, sents in ((16, batch), (32, batch * 2)):
            reset_graph()
            batch_loss(model, sents, train_mode=True, rng=rng)
            sizes[b] = tape_bytes()
        assert sizes[32] <= 2.2 * sizes[16], sizes

    def test_depth_attention_head_adds_few_tape_nodes(self):
        # at L=J=4, a matmul chain per (layer, head) pair records 165
        # nodes more than the final head; one key and one value linear
        # per layer over per-pair tensors joined on every forward, 41;
        # with the tensors stored joined, 23
        rng = np.random.default_rng(0)
        batch = desk_batch(rng)
        nodes = {}
        for head_type in ("mhmla", "final"):
            model = init_model(desk_config(head_type=head_type), rng)
            reset_graph()
            batch_loss(model, batch, train_mode=True, rng=rng)
            nodes[head_type] = len(active_graph().nodes)
        assert nodes["mhmla"] - nodes["final"] <= 25, nodes

    def test_desk_step_records_at_most_100_tape_nodes(self):
        # one node per affine map and per layer norm; unfused, 150
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        batch_loss(model, desk_batch(rng), train_mode=True, rng=rng)
        assert len(active_graph().nodes) <= 100

    def test_b64_desk_batch_tape_is_at_most_85_mib(self):
        # unfused, each product beside its sum and a layer norm's three
        # outputs held about 110 MiB
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        batch_loss(model, desk_batch(rng) * 4, train_mode=True, rng=rng)
        mib = tape_bytes() / 2 ** 20
        assert mib <= 85, mib

    def test_backward_keeps_no_grad_on_tape_nodes(self):
        # kept on the tape until reset_graph, the interior gradients of
        # this batch held 12.0 MiB (59.0 MiB on the B=64 batch)
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        backward(batch_loss(model, desk_batch(rng), train_mode=True, rng=rng))
        assert all(node.grad is None for node in active_graph().nodes)
        assert all(p.grad is not None for _, p in named_parameters(model))

    def test_b64_desk_step_peaks_at_most_96_mib(self):
        # forward, backward, Adam and zero_grad, traced from before the
        # forward: the tape alone is about 79 MiB; with every interior
        # gradient kept and Adam allocating per tensor the step peaked
        # at about 131 MiB
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        params = list(named_parameters(model))
        batch = desk_batch(rng) * 4
        tracemalloc.start()
        try:
            backward(batch_loss(model, batch, train_mode=True, rng=rng))
            adam_step(params, AdamState(), TrainConfig())
            for _, p in params:
                p.zero_grad()
            mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert mib <= 96, mib

    @pytest.mark.parametrize("batch_size, dropout", [(16, 0.0), (4, 0.1)])
    def test_train_matches_per_tensor_adam(self, monkeypatch, batch_size,
                                           dropout):
        # compared after every step, before train() snaps the result
        # onto the float32 grid
        corpus = small_corpus(n=32)
        cfg = desk_config(vocab_size=corpus.vocab.n_pieces, dropout=dropout,
                          attn_dropout=dropout)
        tc = self.tc(batch_size=batch_size, epochs=1)

        def run(step_fn):
            seen = []

            def recording(named_params, state, config):
                step_fn(named_params, state, config)
                seen.append([p.data.copy() for _, p in named_params])

            monkeypatch.setattr("gedlab.training.adam_step", recording)
            return train(corpus, cfg, tc).epoch_losses, seen

        losses, steps = run(adam_step)
        ref_losses, ref_steps = run(adam_reference)
        assert losses == ref_losses
        assert len(steps) == len(ref_steps) == -(-32 // batch_size)
        for mine, theirs in zip(steps, ref_steps):
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    def test_live_dropout_without_rng_rejected(self):
        corpus = small_corpus(n=2)
        model = init_model(config_for(corpus), np.random.default_rng(1))
        sent = corpus.tokenized[0]
        with pytest.raises(ValueError, match="above 0 and needs an rng"):
            batch_loss(model, [sent], train_mode=True)
        with pytest.raises(ValueError, match="above 0 and needs an rng"):
            predict_word_probs(model, sent.sub_ids, sent.first_sub_index,
                               train_mode=True)

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

    @pytest.mark.parametrize("head_type", HEAD_TYPES)
    def test_parameter_shapes_match_init_model(self, head_type):
        # the shapes load_checkpoint checks before it allocates
        for j in (1, 2, 8):
            cfg = ModelConfig(n_layers=3, hidden=24, self_attn_heads=3,
                              ffn_dim=20, layer_attn_heads=j, key_dim=5,
                              vocab_size=9, max_len=7, n_classes=3,
                              head_type=head_type)
            built = init_model(cfg, np.random.default_rng(0))
            assert list(parameter_shapes(cfg)) == [
                (n, t.shape) for n, t in named_parameters(built)]

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
        assert ({n: t.shape for n, t in named_parameters(loaded)}
                == {n: t.shape for n, t in named_parameters(model)})

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
