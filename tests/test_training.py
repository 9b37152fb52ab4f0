"""Optimizer oracle, the training loop's determinism contract, and the
checkpoint byte format."""
import json
import re
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from gedlab.corpus import (
    PAD_ID, LabeledCorpus, LabeledSentence, TokenizedSentence, build_corpus,
    generate_synthetic_pairs, pairs_to_labeled,
)
from gedlab.encoder import HEAD_TYPES, LayerParams, ModelConfig, encode_batch
from gedlab.evaluation import attention_summary, evaluate
from gedlab.model import (
    forward_batch, head_forward, init_model, parameter_shapes,
    predict_word_probs, word_rows,
)
from gedlab.tensor import (
    Tensor, _acc, active_graph, add, backward, cross_entropy, gather_rows,
    no_grad, reset_graph, scale,
)
from gedlab.training import (
    ADAM_BLOCK, CHECKPOINT_MAGIC, AdamState, CheckpointError, TrainConfig,
    adam_step, batch_loss, batch_word_rows, checkpoint_bytes,
    label_targets, load_checkpoint, save_checkpoint, train,
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
    backward keeps (an op's saved intermediates live there), alone or in
    a list, such as per-layer dropout masks, each buffer counted once.
    A view counts as the array that owns its memory."""
    seen, total = set(), 0
    for node in active_graph().nodes:
        held = [node.data]
        for cell in node._backward.__closure__ or ():
            v = cell.cell_contents
            held.extend(v if isinstance(v, (list, tuple)) else [v])
        for a in held:
            if not isinstance(a, np.ndarray):
                continue
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in seen:
                seen.add(id(a))
                total += a.nbytes
    return total


def assert_views_of_flat(model):
    """Every parameter is a view of model.flat at its offset in
    Model.named order, and together they fill it: numbering the
    buffer's entries shows each tensor its own run of numbers."""
    saved = model.flat.copy()
    model.flat[...] = np.arange(model.flat.size)
    start = 0
    for name, p in model.named:
        assert np.array_equal(p.data.reshape(-1),
                              np.arange(start, start + p.data.size)), name
        start += p.data.size
    assert start == model.flat.size
    model.flat[...] = saved


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
        rows = word_rows([[0, 1, 2, 3]], [4], 4)
        with no_grad():
            out = gather_rows(state, rows)
        assert np.array_equal(out.data, state.data)

    def test_picks_first_subtoken_rows(self):
        assert word_rows([[0, 1, 3]], [5], 5).tolist() == [0, 1, 3]
        assert word_rows([[0, 2], [], [1]], [3, 1, 2], 4).tolist() == [0, 2, 9]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="out of range"):
            word_rows([[0, 9]], [4], 4)
        with pytest.raises(ValueError, match="out of range"):
            word_rows([[0], [-1]], [4, 4], 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            word_rows([[0, 2, 2]], [4], 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            word_rows([[0], [3, 1]], [4, 4], 4)
        # a start past its own sentence, though inside the padded length
        with pytest.raises(ValueError, match="out of range"):
            word_rows([[0, 2]], [2], 4)
        with pytest.raises(ValueError, match="does not fit"):
            word_rows([[0]], [5], 4)
        # predict_word_probs checks a caller's word starts the same way
        model = init_model(config_for(small_corpus()),
                           np.random.default_rng(0))
        with no_grad(), pytest.raises(ValueError, match="out of range"):
            predict_word_probs(model, [4, 5], [0, 2])

    def test_word_start_in_the_batch_padding_rejected(self):
        # the second sentence pads the first to 6 sub-tokens: a start at
        # 4 lies in the padding and must fail as it does on its own
        model = init_model(config_for(small_corpus()),
                           np.random.default_rng(0))
        with no_grad():
            with pytest.raises(ValueError, match="out of range"):
                predict_word_probs(model, [5, 6, 7], [0, 4])
            with pytest.raises(ValueError, match="out of range"):
                forward_batch(model, [[5, 6, 7], [5, 6, 7, 8, 9, 10]],
                              [[0, 4], [0, 1]])

    def test_row_count_matches_label_count_corpus_wide(self):
        corpus = small_corpus(n=40)
        for t in corpus.tokenized:
            assert len(t.first_sub_index) == len(t.labels)
            rows = word_rows([t.first_sub_index], [len(t.sub_ids)],
                             len(t.sub_ids))
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
                                     model.encoder, model.config, rng)
            rows, targets = batch_word_rows(batch,
                                            states[0].shape[0] // len(batch))
            logits, _ = head_forward([gather_rows(s, rows) for s in states],
                                     model, rng)
            return cross_entropy(logits, targets).item()

        logits, _ = forward_batch(model, [t.sub_ids for t in batch],
                                  [t.first_sub_index for t in batch],
                                  np.random.default_rng(9))
        targets = label_targets([lab for t in batch for lab in t.labels])
        want = unfolded(np.random.default_rng(9))
        assert cross_entropy(logits, targets).item() == want
        assert batch_loss(model, batch,
                          np.random.default_rng(9)).item() == want


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


def one_buffer(*arrays):
    """Parameter tensors holding copies of arrays, as init_model makes
    them: views of one flat buffer, laid out in turn.  Returns (flat,
    tensors)."""
    flat = np.concatenate([np.ravel(a) for a in arrays]).astype(np.float64)
    tensors, start = [], 0
    for a in arrays:
        size = np.size(a)
        tensors.append(Tensor(flat[start:start + size].reshape(np.shape(a)),
                              requires_grad=True))
        start += size
    return flat, tensors


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        flat, (p,) = one_buffer(np.array([[1.0, -2.0]]))
        p.grad = np.zeros_like(p.data)
        before = p.data.copy()
        adam_step([("p", p)], AdamState(flat, [("p", p)]), TrainConfig())
        assert np.array_equal(p.data, before)

    def test_none_gradient_is_skipped(self):
        flat, (p,) = one_buffer(np.ones((2, 2)))
        adam_step([("p", p)], AdamState(flat, [("p", p)]), TrainConfig())
        assert np.array_equal(p.data, np.ones((2, 2)))

    def test_first_step_is_signed_learning_rate(self):
        tc = TrainConfig(learning_rate=0.01)
        for g in (0.37, -41.0, 5e-7):
            flat, (p,) = one_buffer(np.array([[2.0]]))
            p.grad = np.array([[g]])
            adam_step([("p", p)], AdamState(flat, [("p", p)]), tc)
            delta = p.data[0, 0] - 2.0
            expected = -tc.learning_rate * g / (abs(g) + tc.adam_eps)
            assert abs(delta - expected) < 1e-12

    def test_ten_steps_match_reference_trace(self):
        tc = TrainConfig(learning_rate=0.1)
        expected = reference_adam_trace(
            x0=5.0, grad_fn=lambda x: x - 3.0, lr=0.1, steps=10)
        flat, (p,) = one_buffer(np.array([[5.0]]))
        state = AdamState(flat, [("p", p)])
        for want in expected:
            p.grad = p.data - 3.0
            adam_step([("p", p)], state, tc)
            assert abs(p.data[0, 0] - want) < 1e-12

    def test_nan_gradient_aborts_naming_parameter(self):
        flat, (p,) = one_buffer(np.ones((2,)))
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(FloatingPointError, match="enc.00.attn.w_q"):
            adam_step([("enc.00.attn.w_q", p)],
                      AdamState(flat, [("enc.00.attn.w_q", p)]), TrainConfig())

    def test_shape_mismatch_rejected(self):
        flat, (p,) = one_buffer(np.ones((2, 2)))
        p.grad = np.ones((2,))
        with pytest.raises(ValueError, match="shape"):
            adam_step([("p", p)], AdamState(flat, [("p", p)]), TrainConfig())

    def test_ten_steps_match_per_tensor_oracle_with_a_skipped_grad(self):
        rng = np.random.default_rng(5)
        shapes = [(3, 5), (5,), (1,)]
        start = [rng.normal(size=s) for s in shapes]
        buffer, tensors = one_buffer(*start)
        flat = [(f"p{i}", p) for i, p in enumerate(tensors)]
        ref = [(f"p{i}", Tensor(x.copy(), requires_grad=True))
               for i, x in enumerate(start)]
        state, ref_state = AdamState(buffer, flat), AdamState(np.zeros(0), [])
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

    def test_blocked_update_matches_per_tensor_oracle(self):
        # four tensors over about 2.5 blocks, p1 across the first block
        # boundary and p2 across the second.  Gradients arrive through
        # backward in the state's buffer, two contributions per tensor;
        # at step 4, p1 has none and p3's is set by hand
        rng = np.random.default_rng(9)
        shapes = [(200, 150), (50, 70), (250, 160), (90, 100)]
        ends = np.cumsum([r * c for r, c in shapes])
        assert ends[0] < ADAM_BLOCK < ends[1] < 2 * ADAM_BLOCK < ends[2]
        assert 2.5 * ADAM_BLOCK < ends[-1] < 2.6 * ADAM_BLOCK
        start = [rng.normal(size=s) for s in shapes]
        buffer, tensors = one_buffer(*start)
        params = [(f"p{i}", p) for i, p in enumerate(tensors)]
        ref = [(f"p{i}", Tensor(x.copy(), requires_grad=True))
               for i, x in enumerate(start)]
        state, ref_state = AdamState(buffer, params), AdamState(np.zeros(0), [])
        tc = TrainConfig(learning_rate=0.05)
        for step in range(1, 11):
            live = [0, 2] if step == 4 else [0, 1, 2, 3]
            terms = [cross_entropy(
                scale(tensors[i], 10.0 ** rng.integers(-3, 3)),
                rng.integers(0, shapes[i][1], shapes[i][0]))
                for i in live for _ in range(2)]
            loss = terms[0]
            for term in terms[1:]:
                loss = add(loss, term)
            backward(loss)
            if step == 4:
                tensors[3].grad = rng.normal(size=shapes[3])
            grads = [None if p.grad is None else p.grad.copy()
                     for p in tensors]
            for (_, q), g in zip(ref, grads):
                q.grad = g
            adam_step(params, state, tc)
            adam_reference(ref, ref_state, tc)
            for (_, p), (_, q), g in zip(params, ref, grads):
                assert np.array_equal(p.data, q.data), step
                assert (p.grad is None if g is None
                        else np.array_equal(p.grad, g)), step
            for mine, theirs in ((state.m, ref_state.m),
                                 (state.v, ref_state.v)):
                joined = np.concatenate([theirs[n].reshape(-1)
                                         for n, _ in ref])
                assert np.array_equal(mine, joined), step
            for p in tensors:
                p.zero_grad()
            reset_graph()
        assert state.t == ref_state.t == 10

    def test_nonfinite_gradient_writes_nothing(self):
        buffer, tensors = one_buffer(np.ones((2, 3)), np.ones(4), np.ones(1))
        params = list(zip("abc", tensors))
        state = AdamState(buffer, params)
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
        buffer, tensors = one_buffer(np.ones((2, 2)), np.ones((2, 2)))
        params = list(zip(("enc.00.ffn.w1", "enc.00.ffn.w2"), tensors))
        state = AdamState(buffer, params)
        for _, p in params:
            p.grad = np.ones((2, 2))
        adam_step(params, state, TrainConfig())
        params[1][1].data = params[1][1].data.copy()
        with pytest.raises(ValueError, match="enc.00.ffn.w2"):
            adam_step(params, state, TrainConfig())

    def test_parameters_out_of_buffer_order_rejected(self):
        buffer, tensors = one_buffer(np.ones(3), np.ones(2))
        params = list(zip(("a", "b"), tensors))
        for _, p in params:
            p.grad = np.ones(p.shape)
        with pytest.raises(ValueError, match="b is not its view"):
            adam_step(params[::-1], AdamState(buffer, params), TrainConfig())
        assert np.array_equal(buffer, np.ones(5))


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
        for _, p in result.model.named:
            assert np.isfinite(p.data).all()
            # the training state's gradient buffer does not outlive it
            assert p.grad is None and p._grad_home is None

    def test_same_seed_gives_bit_identical_traces_and_params(self):
        corpus = small_corpus()
        cfg = config_for(corpus)
        a = train(corpus, cfg, self.tc())
        b = train(corpus, cfg, self.tc())
        assert a.epoch_losses == b.epoch_losses
        for (na, pa), (nb, pb) in zip(a.model.named, b.model.named):
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
            batch_loss(model, sents, rng)
            sizes[b] = tape_bytes()
        assert sizes[32] <= 2.2 * sizes[16], sizes

    def test_depth_attention_head_adds_few_tape_nodes(self):
        # the MHMLA head is one depth_attention node, as many as the
        # final head's linear.  At L=J=4, a
        # matmul chain per (layer, head) pair recorded 165 nodes more
        # than the final head; one key and one value linear per layer
        # over per-pair tensors joined on every forward, 41; with the
        # tensors stored joined, 23; with concat, reshape and a
        # broadcasting mul around per-layer key and value maps, 19
        rng = np.random.default_rng(0)
        batch = desk_batch(rng)
        nodes = {}
        for head_type in ("mhmla", "final"):
            model = init_model(desk_config(head_type=head_type), rng)
            reset_graph()
            batch_loss(model, batch, rng)
            nodes[head_type] = len(active_graph().nodes)
        assert nodes["mhmla"] <= nodes["final"], nodes

    def test_desk_step_records_25_tape_nodes(self):
        # three for the embedding, four per encoder block
        # (self_attention, residual_norm, linear_relu, residual_norm),
        # a word-row gather_rows per block output, depth_attention for
        # the MHMLA head, and the loss, which takes the softmax.  With a
        # softmax node of its own, 26; with a gather of the embedding's
        # word rows too, 27; with the head built from concat, reshape,
        # mul and per-layer linear maps, 46; with one node per affine
        # map, layer norm, relu and attention, 82, and before those
        # were fused, 150
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        batch_loss(model, desk_batch(rng), rng)
        assert len(active_graph().nodes) == 25

    def test_b64_desk_batch_tape_is_at_most_50_mib(self):
        # 45.4 MiB; with the MHMLA head as 21 nodes, 49.4 MiB, and with
        # the q, k, v, w_o and FFN outputs and the residual sums on the
        # tape, which no backward reads, 78.3 MiB
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        batch_loss(model, desk_batch(rng) * 4, rng)
        mib = tape_bytes() / 2 ** 20
        assert mib <= 50, mib

    def test_backward_keeps_no_grad_on_tape_nodes(self):
        # kept on the tape until reset_graph, the interior gradients of
        # this batch held 12.0 MiB (59.0 MiB on the B=64 batch)
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        backward(batch_loss(model, desk_batch(rng), rng))
        assert all(node.grad is None for node in active_graph().nodes)
        assert all(p.grad is not None for _, p in model.named)

    def test_b64_desk_step_peaks_at_most_66_mib(self):
        # forward, backward, Adam and zero_grad, traced from before the
        # forward: 55.1 MiB, the tape alone 45.4 MiB (58.9 and 49.4 with
        # the MHMLA head as 21 nodes).  With one node per affine map and
        # layer norm the step peaked at 87.8 MiB, and
        # with every interior gradient kept and Adam allocating per
        # tensor at about 131 MiB
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        params = model.named
        batch = desk_batch(rng) * 4
        tracemalloc.start()
        try:
            backward(batch_loss(model, batch, rng))
            adam_step(params, AdamState(model.flat, params), TrainConfig())
            for _, p in params:
                p.zero_grad()
            mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert mib <= 66, mib

    def test_b64_train_steps_hold_one_graph_at_a_time(self):
        # a step's loss Tensor reaches its whole graph through the
        # backward closures: kept until the next step's forward, the
        # second of two steps peaked at about 1.7 times a lone step.
        # Every sentence has 16 words, so both steps have one shape
        rng = np.random.default_rng(0)
        words, labels = ["w"] * 16, ["c"] * 16
        sentences = [TokenizedSentence(
            words=words, labels=labels,
            sub_ids=rng.integers(4, 40, size=16).tolist(),
            first_sub_index=list(range(16))) for _ in range(128)]
        peaks = {}
        for n in (64, 128):     # one step, then two
            corpus = LabeledCorpus(
                sentences=[LabeledSentence(words, labels)] * n, vocab=None,
                tokenized=sentences[:n])
            tracemalloc.start()
            try:
                result = train(corpus, desk_config(),
                               TrainConfig(batch_size=64, epochs=1))
                peaks[n] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
            assert result.n_steps == n // 64
        assert peaks[128] <= 1.05 * peaks[64], peaks

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

    def test_live_dropout_without_rng_is_an_eval_forward(self):
        # the rng, not the config, decides the mode: at dropout 0.1 a
        # forward without one draws nothing, not even from numpy's
        # global generator, and equals the forward at rates 0
        corpus = small_corpus(n=6)
        sub_ids = [t.sub_ids for t in corpus.tokenized]
        first = [t.first_sub_index for t in corpus.tokenized]
        for head_type in HEAD_TYPES:
            model = init_model(config_for(corpus, head_type=head_type),
                               np.random.default_rng(1))
            rates_0 = replace(model, config=replace(
                model.config, dropout=0.0, attn_dropout=0.0))
            before = np.random.get_state()
            logits, record = forward_batch(model, sub_ids, first)
            after = np.random.get_state()
            assert np.array_equal(before[1], after[1])
            assert before[2:] == after[2:]
            plain, plain_record = forward_batch(rates_0, sub_ids, first)
            assert np.array_equal(logits.data, plain.data), head_type
            trained, _ = forward_batch(model, sub_ids, first,
                                       np.random.default_rng(5))
            assert not np.array_equal(logits.data, trained.data), head_type
            if record is not None:
                assert np.array_equal(record.weights, plain_record.weights)
                assert np.allclose(record.weights.sum(axis=2), 1.0)

    @pytest.mark.parametrize("head_type", HEAD_TYPES)
    def test_rng_at_dropout_0_changes_no_bit(self, head_type):
        corpus = small_corpus(n=6)
        model = init_model(config_for(corpus, head_type=head_type,
                                      dropout=0.0, attn_dropout=0.0),
                           np.random.default_rng(1))
        sub_ids = [t.sub_ids for t in corpus.tokenized]
        first = [t.first_sub_index for t in corpus.tokenized]
        logits, record = forward_batch(model, sub_ids, first)
        trained, trained_record = forward_batch(model, sub_ids, first,
                                                np.random.default_rng(5))
        assert np.array_equal(logits.data, trained.data)
        if record is not None:
            assert np.array_equal(record.weights, trained_record.weights)
        assert (batch_loss(model, corpus.tokenized).item()
                == batch_loss(model, corpus.tokenized,
                              np.random.default_rng(5)).item())

    def test_model_config_is_used_as_given(self):
        corpus = small_corpus(n=4)
        cfg = config_for(corpus, dropout=0.25, attn_dropout=0.25)
        result = train(corpus, cfg, self.tc(epochs=1))
        assert result.model.config == cfg
        still = train(corpus, config_for(corpus, dropout=0.0,
                                         attn_dropout=0.0), self.tc(epochs=1))
        assert result.epoch_losses != still.epoch_losses


class TestGradientBuffer:
    """Parameter gradients live in AdamState's flat buffer, which only
    training allocates.  Figures from tracemalloc on the desk model
    over 40 ids (171922 entries, 1.31 MiB per full-size array)."""

    def test_desk_step_grads_land_in_the_state_buffer(self):
        rng = np.random.default_rng(0)
        model = init_model(desk_config(), rng)
        params = model.named
        state = AdamState(model.flat, params)
        full = [k for k, a in vars(state).items()
                if isinstance(a, np.ndarray) and a.base is None
                and a.size == model.flat.size and a is not model.flat]
        # m, v and grad; with a full-size update scratch as well, four
        assert sorted(full) == ["grad", "m", "v"]
        tracemalloc.start()
        try:
            loss = batch_loss(model, desk_batch(rng), rng)
            forward = tracemalloc.get_traced_memory()[0]
            backward(loss)
            after_backward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            adam_step(params, state, TrainConfig())
            adam_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the leaves' own gradient arrays held 1.32 MiB past the tape;
        # now about 1 KiB
        assert after_backward - forward <= 64 * 1024
        # two block-sized scratch arrays and the finiteness check's
        # 0.16 MiB bool mask: 0.67 MiB above the step's start; a
        # full-size float temporary would add 1.31 MiB more
        assert adam_peak - after_backward <= 0.75 * 2 ** 20
        offset = 0
        for (name, p), home in zip(params, state.homes):
            assert p.grad is home, name
            assert np.shares_memory(p.grad, state.grad), name
            assert p.grad.__array_interface__["data"][0] == (
                state.grad.__array_interface__["data"][0] + 8 * offset), name
            offset += p.data.size

    def test_wrong_shaped_contribution_to_a_home_rejected(self):
        # written into the home, a () or (1, 3) gradient would broadcast
        # over the (3,) parameter
        buffer, (p,) = one_buffer(np.ones(3))
        state = AdamState(buffer, [("p", p)])
        for wrong in (np.asarray(2.0), np.ones((1, 3))):
            with pytest.raises(ValueError, match=rf"gradient shape "
                               rf"{re.escape(str(wrong.shape))} does not "
                               rf"match its leaf's \(3,\)"):
                _acc({}, p, wrong)
            assert p.grad is None
        _acc({}, p, np.ones(3))
        with pytest.raises(ValueError, match="gradient shape"):
            _acc({}, p, np.ones((1, 3)))
        assert p.grad is state.homes[0]
        assert np.array_equal(state.grad, np.ones(3))

    def test_load_eval_and_attn_allocate_no_gradient_buffer(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(desk_config(
            vocab_size=corpus.vocab.n_pieces), np.random.default_rng(1)),
            path)
        tracemalloc.start()
        try:
            model = load_checkpoint(path)
            loaded = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evaluate(model, corpus)
            attention_summary(model, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the model holds 1.35 MiB, its buffer 1.33 MiB of it; a
        # gradient buffer made with the model would double that
        assert loaded <= model.flat.nbytes + 2 ** 18
        # evaluate and attention_summary peak 0.92 MiB above the loaded
        # model, less than one full-size buffer
        assert peak - loaded < model.flat.nbytes
        assert all(p.grad is None and p._grad_home is None
                   for _, p in model.named)


# checkpoint name -> dataclass field, written out apart from the layout
# lists; "{:02d}" marks a per-layer entry of a list field
BLOCK_NAMES = {
    "attn.w_q": "w_q", "attn.b_q": "b_q", "attn.w_k": "w_k",
    "attn.w_v": "w_v", "attn.b_v": "b_v", "attn.w_o": "w_o",
    "attn.b_o": "b_o", "ln1.gain": "ln1_gain", "ln1.bias": "ln1_bias",
    "ffn.w1": "w_ff1", "ffn.b1": "b_ff1", "ffn.w2": "w_ff2",
    "ffn.b2": "b_ff2", "ln2.gain": "ln2_gain", "ln2.bias": "ln2_bias"}
HEAD_NAMES = {
    "final": {},
    "avgl": {"proj.{:02d}.w": "w_proj", "proj.{:02d}.b": "b_proj"},
    "mhmla": {"att.{:02d}.w_v": "w_v", "att.{:02d}.b_v": "b_v",
              "att.{:02d}.w_k": "w_k", "att.{:02d}.b_k": "b_k",
              "att.w_a": "w_a", "att.b_a": "b_a"}}


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
                (n, t.shape) for n, t in built.named]

    @pytest.mark.parametrize("head_type", HEAD_TYPES)
    def test_every_field_is_its_named_tensor(self, head_type):
        # the forwards and the save/load round trip read parameters
        # through the fields, so only this table catches two fields of
        # one shape swapped in a dataclass or a layout list; at this
        # config every block weight is [8 x 8], both embeddings are
        # [8 x 8], and the MHMLA w_v and w_k are both [8 x 8] (J*dk == H)
        cfg = ModelConfig(n_layers=2, hidden=8, self_attn_heads=2,
                          ffn_dim=8, layer_attn_heads=2, key_dim=4,
                          vocab_size=8, max_len=8, head_type=head_type)
        model = init_model(cfg, np.random.default_rng(0))
        enc, head = model.encoder, model.head
        table = {**HEAD_NAMES[head_type], "w_out": "w_out", "b_out": "b_out"}
        assert set(BLOCK_NAMES.values()) == {
            f.name for f in fields(LayerParams)}
        assert set(table.values()) == {f.name for f in fields(head)}
        want = {"embed.token": enc.token_embedding,
                "embed.position": enc.position_embedding}
        for i, lp in enumerate(enc.layers):
            for name, field in BLOCK_NAMES.items():
                want[f"enc.{i:02d}.{name}"] = getattr(lp, field)
        for l in range(cfg.n_layers):
            for name, field in table.items():
                if "{" in name:
                    want["head." + name.format(l)] = getattr(head, field)[l]
        for name, field in table.items():
            if "{" not in name:
                want["head." + name] = getattr(head, field)
        got = model.named
        assert [n for n, _ in got] == list(want)
        for name, t in got:
            assert t is want[name], name

    @pytest.mark.parametrize("head_type", HEAD_TYPES)
    def test_parameters_are_views_of_one_buffer(self, tmp_path, head_type):
        corpus = small_corpus(n=6)
        cfg = config_for(corpus, head_type=head_type)
        model = init_model(cfg, np.random.default_rng(0))
        assert_views_of_flat(model)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert_views_of_flat(load_checkpoint(path))
        result = train(corpus, cfg, TrainConfig(
            learning_rate=1e-3, batch_size=4, epochs=1, seed=2))
        assert_views_of_flat(result.model)

    @pytest.mark.parametrize("head_type", HEAD_TYPES)
    def test_load_draws_nothing(self, tmp_path, monkeypatch, head_type):
        # the encoder and every head draw through draw_normal; load
        # overwrites every parameter, so a draw there is wasted work
        cfg = config_for(small_corpus(n=6), head_type=head_type)
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(cfg, np.random.default_rng(0)), path)

        def no_draw(*args):
            raise AssertionError("load drew random weights")

        for module in ("gedlab.encoder", "gedlab.heads"):
            monkeypatch.setattr(f"{module}.draw_normal", no_draw)
        assert checkpoint_bytes(load_checkpoint(path)) == path.read_bytes()

    def test_rebound_parameter_is_never_saved_stale(self, tmp_path):
        model, _ = self.trained_model()
        p = dict(model.named)["enc.00.attn.b_v"]
        p.data = p.data + 1.0
        with pytest.raises(ValueError, match="enc.00.attn.b_v"):
            save_checkpoint(model, tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()

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
        assert ({n: t.shape for n, t in loaded.named}
                == {n: t.shape for n, t in model.named})

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
            logits, _ = predict_word_probs(loaded, t.sub_ids,
                                           t.first_sub_index)
        assert logits.shape == (len(t.words), 2)
