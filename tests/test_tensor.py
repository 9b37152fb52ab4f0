"""Tensor core: forward values against hand-computed oracles, backward
against central differences, and the contract errors."""
import math
import re
import threading

import numpy as np
import pytest

from gedlab.tensor import (
    PROB_CLAMP, GradCheckReport, Tensor, _acc, _affine_grads, _record,
    _residual_norm, _self_attention, active_graph, add, backward,
    cross_entropy, depth_attention, dropout, embed, encoder_block,
    finite_diff_check, gather_rows, linear, linear_relu, no_grad,
    reset_graph, scale, sum_all,
)
from oracles import (
    cross_entropy_reference, depth_attention_reference,
    layer_norm_reference, linear_reference,
    linear_relu_reference, residual_norm_reference, self_attention_reference,
    weighted_sum,
)


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def self_attention(h, w_q, b_q, w_k, w_v, b_v, key_real, n_heads,
                   rate=0.0, rng=None) -> Tensor:
    """encoder_block's attention half as a node of its own: P V, whose
    backward rebuilds V and hands it on as the block's does."""
    mix, bwd = _self_attention(h, w_q, b_q, w_k, w_v, b_v, key_real,
                               n_heads, rate, rng)
    return _record(Tensor(mix()[0]), (h, w_q, b_q, w_k, w_v, b_v),
                   lambda g, pending: bwd([g, mix()[1]], pending))


def residual_norm(h, x, w, b, gain, bias, rate=0.0, rng=None) -> Tensor:
    """encoder_block's residual-norm half as a node of its own, handing
    h, then x @ w + b their gradients as the block does."""
    out, norm = _residual_norm(h.data, x.data, w, b, gain, bias, rate, rng)

    def bwd(g, pending):
        gh, gz = norm(g, pending)
        _acc(pending, h, gh)
        _acc(pending, x, _affine_grads(pending, x.data, w, b, gz))

    return _record(Tensor(out()), (h, x, w, b, gain, bias), bwd)


def bare_relu(x: Tensor) -> Tensor:
    """relu alone: linear_relu through the identity with a zero bias
    (x @ I is x, bit for bit)."""
    n = x.shape[1]
    return linear_relu(x, Tensor(np.eye(n)), Tensor(np.zeros(n)))


def bare_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """The affine layer norm alone: residual_norm with x as the residual
    and a zero sublayer (0 + x is x, bit for bit)."""
    n, h = x.shape
    return residual_norm(x, Tensor(np.zeros((n, 1))), Tensor(np.zeros((1, h))),
                         Tensor(np.zeros(h)), gain, bias)


class TestForwardValues:
    # the plain product is a linear with a zero bias
    def test_matmul_identity(self):
        i2 = Tensor(np.eye(2))
        v = Tensor([[3.0], [4.0]])
        assert np.array_equal(linear(i2, v, Tensor(np.zeros(1))).data,
                              [[3.0], [4.0]])

    def test_matmul_small(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(linear(a, b, Tensor(np.zeros(1))).data,
                              [[17.0], [39.0]])

    def test_matmul_zero(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((3, 4)))
        assert np.array_equal(linear(a, b, Tensor(np.zeros(4))).data,
                              np.zeros((2, 4)))

    def test_matmul_shape_error_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            linear(a, b, Tensor(np.zeros(5)))

    def test_softmax_log2(self):
        # the loss's own softmax of [ln 2, 0, 0] is [0.5, 0.25, 0.25]
        logits = Tensor([[math.log(2.0), 0.0, 0.0]] * 3)
        loss = cross_entropy(logits, [0, 1, 2])
        expect = (math.log(2.0) + 2 * math.log(4.0)) / 3.0
        assert abs(loss.item() - expect) < 1e-15

    def test_softmax_extreme_logits_stay_finite(self):
        # max subtraction: exp never sees 1000; the other class's
        # probability underflows to 0, so its loss is the clamp's
        logits = Tensor([[1000.0, 0.0]], requires_grad=True)
        assert cross_entropy(logits, [0]).item() == 0.0
        loss = cross_entropy(logits, [1])
        assert abs(loss.item() + math.log(PROB_CLAMP)) < 1e-12
        backward(loss)
        assert np.all(np.isfinite(logits.grad))

    def test_relu_values(self):
        y = bare_relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(y.data, [[0.0, 0.0, 2.0]])

    def test_relu_matches_mask_product(self, rng):
        x = rng.normal(size=(4, 6))
        assert np.array_equal(bare_relu(Tensor(x)).data, x * (x > 0))

    def test_row_norm_standardizes(self, rng):
        # the layer norm with gain 1 and bias 0 is the bare row norm
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(10, 16)))
        y = bare_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.all(np.abs(y.mean(axis=1)) < 1e-8)
        assert np.all(np.abs(y.var(axis=1) - 1.0) < 1e-8)

    def test_cross_entropy_half(self):
        loss = cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-15

    def test_cross_entropy_onehot_is_zero(self):
        # exp(-1000) is 0, so the softmax row is exactly one-hot
        loss = cross_entropy(Tensor([[0.0, -1000.0]]), [0])
        assert loss.item() == 0.0

    def test_cross_entropy_two_rows(self):
        # (-ln 0.9 - ln 0.75) / 2, computed with math.log
        expect = (-math.log(0.9) - math.log(0.75)) / 2.0
        assert abs(expect - 0.1965212940548036) < 1e-15
        logits = np.log([[0.9, 0.1], [0.25, 0.75]])
        loss = cross_entropy(Tensor(logits), [0, 1])
        assert abs(loss.item() - expect) < 1e-12

    def test_cross_entropy_rejects_bad_target(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor([[0.0, 0.0]]), [2])

    @pytest.mark.parametrize("n, c", [(1, 2), (7, 2), (5, 3)])
    def test_cross_entropy_is_the_two_step_reference(self, rng, n, c):
        # loss and logits gradient equal a softmax followed by a loss on
        # its probabilities, bit for bit; row 0's target probability is
        # under PROB_CLAMP, so the clamp's flat region is covered too
        x = rng.normal(size=(n, c)) * 3.0
        t = rng.integers(0, c, size=n)
        x[0] = 40.0
        x[0, t[0]] = -40.0
        logits = Tensor(x, requires_grad=True)
        loss = cross_entropy(logits, t)
        backward(loss)
        want_loss, want_grad = cross_entropy_reference(x, t)
        assert loss.item() == want_loss
        assert np.array_equal(logits.grad, want_grad)

    def test_gather_rows_picks(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        y = gather_rows(x, [2, 0, 2])
        assert np.array_equal(y.data, x.data[[2, 0, 2]])

    def test_gather_rows_range_error(self):
        with pytest.raises(ValueError, match="out of range"):
            gather_rows(Tensor(np.zeros((4, 3))), [0, 4])


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones((3, 5)))

    def test_sum_of_squares(self):
        # x @ x reads x twice, so its gradient is the sum of both reads
        x = Tensor([[3.0]], requires_grad=True)
        backward(sum_all(linear(x, x, Tensor(np.zeros(1)))))
        assert np.allclose(x.grad, [[6.0]])

    def test_fanout_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_all(add(x, x)))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([[5.0]], requires_grad=True)
        loss = sum_all(linear(x, x, Tensor(np.zeros(1))))
        backward(loss)
        backward(loss)
        assert np.allclose(x.grad, [[20.0]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(add(x, x))

    def test_loss_off_this_threads_tape_rejected(self):
        # without the check, backward walked a tape that did not hold
        # the loss: x.grad stayed None and the op output took grad 1.0
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = sum_all(x)
        reset_graph()
        with pytest.raises(ValueError, match="not on this thread's tape"):
            backward(loss)
        assert x.grad is None and loss.grad is None
        loss = sum_all(x)
        raised = []

        def elsewhere():
            try:
                backward(loss)
            except ValueError as exc:
                raised.append(exc)

        worker = threading.Thread(target=elsewhere)
        worker.start()
        worker.join()
        assert len(raised) == 1 and x.grad is None and loss.grad is None
        backward(loss)
        assert np.array_equal(x.grad, [1.0, 1.0]) and loss.grad is None

    def test_relu_subgradient_zero_at_zero(self):
        # a zero x @ w leaves the pre-activation b: -1, exactly 0 and 2
        b = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        backward(sum_all(linear_relu(Tensor(np.zeros((1, 1))),
                                     Tensor(np.zeros((1, 3))), b)))
        assert np.array_equal(b.grad, [0.0, 0.0, 1.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = add(x, x)
        assert not y.requires_grad
        assert y._backward is None

    def test_dropout_grad_routes_through_kept_entries(self, rng):
        x = Tensor(np.ones((20, 20)), requires_grad=True)
        y = dropout(x, 0.4, rng)
        backward(sum_all(y))
        # gradient equals the forward mask: 0 where dropped, 1/0.6 where kept
        assert np.array_equal(x.grad, y.data)
        kept = y.data > 0
        assert np.allclose(y.data[kept], 1.0 / 0.6)

    def test_dropout_rate_zero_is_identity(self, rng):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        assert dropout(x, 0.0, rng) is x

    def test_dropout_preserves_mean(self, rng):
        x = Tensor(np.ones((400, 400)))
        y = dropout(x, 0.3, rng)
        assert abs(y.data.mean() - 1.0) < 0.01

    def test_dropout_bad_rate(self, rng):
        with pytest.raises(ValueError, match="rate"):
            dropout(Tensor([1.0]), 1.0, rng)

    def test_dropout_without_rng_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="above 0 and needs an rng"):
            dropout(x, 0.1, None)
        assert dropout(x, 0.0, None) is x

    def test_gather_rows_scatter_adds(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        backward(sum_all(gather_rows(x, [1, 1, 2])))
        assert np.array_equal(x.grad, [[0, 0], [2, 2], [1, 1]])

    @pytest.mark.parametrize("idx", [[0, 2, 3, 5], [3], [], [0, 2, 2, 5],
                                     [5, 2, 0]])
    def test_gather_rows_backward_matches_scatter_add(self, idx):
        # strictly increasing rows are written, not scatter-added; either
        # way every row gets the sum of the gradients routed to it
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = rng.normal(size=(len(idx), 3))
        backward(weighted_sum(gather_rows(x, idx), w))
        want = np.zeros((6, 3))
        np.add.at(want, idx, w)
        assert np.array_equal(x.grad, want)


def _fd_on(op_builder, tensors, tol=1e-6, eps=1e-5):
    """Finite-difference every input of a composed op."""
    params = [(f"t{i}", t) for i, t in enumerate(tensors)]
    report = finite_diff_check(op_builder, params, eps=eps, tol=tol)
    assert report.passed, (
        f"max rel err {report.max_rel_err:.3e} at {report.worst_param}")
    return report


class TestEmbed:
    """embed(token, position, ids, positions) against numpy's row
    gathers and np.add.at."""

    @pytest.mark.parametrize("ids, positions", [
        pytest.param([3, 1, 3, 0, 1], [0, 1, 2, 0, 1], id="repeats"),
        pytest.param([2], [1], id="one_row"),
    ])
    @pytest.mark.parametrize("homes", [False, True])
    def test_matches_gather_and_add_at(self, rng, ids, positions, homes):
        token = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        position = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        if homes:
            # NaN shows a home that the first contribution did not zero
            for t in (token, position):
                t._grad_home = np.full(t.shape, np.nan)
        up = rng.normal(size=(len(ids), 3))
        out = embed(token, position, ids, positions)
        loss = weighted_sum(out, up)
        backward(loss)
        assert np.array_equal(out.data,
                              token.data[ids] + position.data[positions])
        want = {}
        for t, idx in ((token, ids), (position, positions)):
            want[t] = np.zeros(t.shape)
            np.add.at(want[t], idx, up)
            assert np.array_equal(t.grad, want[t])
            assert (t.grad is t._grad_home) == homes
        backward(loss)      # a second contribution adds to the first
        for t in (token, position):
            assert np.array_equal(t.grad, want[t] + want[t])

    @pytest.mark.parametrize("positions", [
        *(pytest.param(np.tile(np.arange(t), b), id=f"tile_b{b}_t{t}")
          for b, t in ((2, 1), (3, 2), (16, 11), (64, 24))),
        pytest.param([0, 1, 2, 0, 1], id="ragged"),
        pytest.param([0, 1, 1, 0], id="blocks_out_of_order"),
        pytest.param([0, 1, 0, 1, 2, 2], id="blocks_of_other_rows"),
    ])
    @pytest.mark.parametrize("homes", [False, True])
    def test_scatter_has_add_at_bits(self, rng, positions, homes):
        # tile(arange(T), B) positions are summed over B as [T x H]
        # blocks, any other list goes through np.add.at; both must give
        # np.add.at's bits.  -0.0 everywhere in column 0 shows a sum
        # that does not start from +0.0, as np.add.at into zeros does
        positions = np.asarray(positions)
        token = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        position = Tensor(rng.normal(size=(30, 4)), requires_grad=True)
        if homes:
            for t in (token, position):
                t._grad_home = np.full(t.shape, np.nan)
        ids = rng.integers(0, 5, size=positions.size)
        up = rng.normal(size=(positions.size, 4))
        up[rng.random(up.shape) < 0.3] = -0.0
        up[:, 0] = -0.0
        backward(weighted_sum(embed(token, position, ids, positions), up))
        for t, idx in ((token, ids), (position, positions)):
            want = np.zeros(t.shape)
            np.add.at(want, idx, up)
            assert t.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("position, ids, got", [
        pytest.param((4, 3), [0, 1], "(2,), (1,), (5, 3) and (4, 3)",
                     id="more_ids_than_positions"),
        pytest.param((4, 2), [0], "(1,), (1,), (5, 3) and (4, 2)",
                     id="tables_differ_in_width"),
    ])
    def test_rejects_bad_shapes(self, position, ids, got):
        with pytest.raises(ValueError, match=re.escape(
                f"embed needs as many ids as positions and two tables of "
                f"one width, got {got}")):
            embed(Tensor(np.ones((5, 3))), Tensor(np.ones(position)), ids,
                  [0])

    def test_rejects_out_of_range_rows(self):
        token, position = Tensor(np.ones((5, 3))), Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError, match=re.escape(
                "row index out of range: valid [0, 4), got [0, 4]")):
            embed(token, position, [0, 1], [0, 4])

    def test_passes_fd(self, rng):
        token = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        position = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        up = rng.normal(size=(6, 3))
        _fd_on(lambda: weighted_sum(embed(token, position, [4, 0, 4, 2, 0, 1],
                                          [0, 1, 2, 3, 0, 1]), up),
               [token, position])


class TestFiniteDifferences:
    def test_linear_plus_square(self, rng):
        # w @ w[rows] + w, weighted by a
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        a = rng.normal(size=(4, 3))
        zero = Tensor(np.zeros(3))
        report = _fd_on(
            lambda: weighted_sum(
                add(linear(w, gather_rows(w, [1, 2, 0]), zero), w), a),
            [w], tol=1e-8)
        assert report.n_checked == 12

    def test_matmul_chain(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        zero = Tensor(np.zeros(2))
        up = rng.normal(size=(3, 2))
        _fd_on(lambda: weighted_sum(linear(a, b, zero), up), [a, b])

    def test_softmax_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        targets = rng.integers(0, 3, size=5)
        _fd_on(lambda: cross_entropy(logits, targets), [logits])

    def test_row_norm_with_affine(self, rng):
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        gain = Tensor(rng.normal(size=8), requires_grad=True)
        bias = Tensor(rng.normal(size=8), requires_grad=True)
        up = rng.normal(size=(4, 8))
        _fd_on(lambda: weighted_sum(bare_norm(x, gain, bias), up),
               [x, gain, bias])

    def test_linear(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        up = rng.normal(size=(4, 5))
        _fd_on(lambda: weighted_sum(linear(x, w, b), up), [x, w, b])

    def test_relu_away_from_kink(self, rng):
        x = Tensor(rng.normal(size=(6, 6)) + np.sign(rng.normal(size=(6, 6))) * 0.5,
                   requires_grad=True)
        up = rng.normal(size=(6, 6))
        _fd_on(lambda: weighted_sum(bare_relu(x), up), [x])

    def test_gather_with_repeats(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = [0, 2, 2, 4, 0]
        up = rng.normal(size=(5, 3))
        _fd_on(lambda: weighted_sum(gather_rows(table, idx), up), [table])

    def test_scale_op(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        up = rng.normal(size=(2, 2))
        _fd_on(lambda: weighted_sum(scale(x, 2.5), up), [x])

    def test_nondeterministic_f_rejected(self, rng):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        live = np.random.default_rng(1)
        with pytest.raises(ValueError, match="deterministic"):
            finite_diff_check(
                lambda: sum_all(dropout(x, 0.5, live)), [("x", x)])

    def test_report_fields(self, rng):
        x = Tensor(rng.normal(size=2), requires_grad=True)
        up = rng.normal(size=2)
        report = finite_diff_check(lambda: weighted_sum(x, up), [("x", x)])
        assert isinstance(report, GradCheckReport)
        assert report.n_checked == 2
        assert report.worst_param.startswith("x[")
        assert report.passed


def _grads_through(op, inputs, upstream):
    """op(*inputs) and every input's gradient when upstream flows into
    the output."""
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*tensors)
    backward(weighted_sum(out, upstream))
    return out.data, [t.grad for t in tensors]


# three sentences padded to T = 4: unpadded, two real tokens, one real token
KEY_REAL = np.array([[True, True, True, True],
                     [True, True, False, False],
                     [True, False, False, False]])


def _keeps(seed, rate, *shapes):
    """The dropout multipliers a generator seeded with seed hands out
    for shapes in turn, as the fused ops draw them; None at rate 0."""
    if rate == 0.0:
        return [None] * len(shapes)
    draw = np.random.default_rng(seed)
    return [(draw.random(s) >= rate) / (1.0 - rate) for s in shapes]


BAD_AFFINE_SHAPES = [
    pytest.param((4,), (4, 2), (2,), id="x_not_2d"),
    pytest.param((3, 4), (5, 2), (2,), id="inner_mismatch"),
    pytest.param((3, 4), (4, 2), (4,), id="bias_not_w_cols"),
    pytest.param((3, 4), (4, 2), (1, 2), id="bias_is_a_row_matrix"),
    pytest.param((3, 4), (4,), (2,), id="w_not_2d"),
]


def _depth_inputs(make, L=2, J=2, dk=3, h=4, n=5, c=2, **shapes):
    """depth_attention's inputs in argument order, make(shape) each: L
    states [n x h], L each of w_k [h x J*dk], b_k, w_a [L*J*dk x 1], b_a
    [L*J], L each of w_v [h x h], b_v, w_out [h x c] and b_out; a
    keyword names an input to give other shapes (a list per layer)."""
    want = {"states": [(n, h)] * L, "w_k": [(h, J * dk)] * L,
            "b_k": [(J * dk,)] * L, "w_a": (L * J * dk, 1), "b_a": (L * J,),
            "w_v": [(h, h)] * L, "b_v": [(h,)] * L, "w_out": (h, c),
            "b_out": (c,)}
    want.update(shapes)
    return [[make(s) for s in v] if isinstance(v, list) else make(v)
            for v in want.values()]


def _flat(inputs):
    """The tensors or arrays of _depth_inputs, or of a result shaped as
    its inputs, in order, the per-layer lists spread out."""
    return [t for v in inputs for t in (v if isinstance(v, list) else [v])]


class TestFusedOps:
    """Each fused op against its unfused numpy form (tests/oracles.py):
    the same expressions in the same order, so every value and every
    gradient is bit-identical, a tensor that several ops read summing
    its gradients in the order separate tape nodes would."""

    @pytest.mark.parametrize("n, k, m", [(1, 3, 2), (5, 4, 3), (7, 1, 6)])
    def test_linear_matches_unfused_reference(self, rng, n, k, m):
        x, w, b = (rng.normal(size=s) for s in ((n, k), (k, m), (m,)))
        upstream = rng.normal(size=(n, m))
        out, grads = _grads_through(linear, (x, w, b), upstream)
        ref_out, *ref_grads = linear_reference(x, w, b, upstream)
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, k, m", [(1, 3, 2), (5, 4, 3), (7, 1, 6)])
    def test_linear_relu_matches_unfused_reference(self, rng, n, k, m):
        x, w, b = (rng.normal(size=s) for s in ((n, k), (k, m), (m,)))
        w[:, 0] = b[0] = 0.0    # output column 0 sits on the kink
        upstream = rng.normal(size=(n, m))
        out, grads = _grads_through(linear_relu, (x, w, b), upstream)
        ref_out, *ref_grads = linear_relu_reference(x, w, b, upstream)
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, h", [(1, 4), (6, 8), (3, 2)])
    def test_layer_norm_matches_unfused_reference(self, rng, n, h):
        # residual_norm with a zero sublayer is the bare affine layer norm
        x = rng.normal(loc=1.0, scale=3.0, size=(n, h))
        gain, bias = rng.normal(size=h), rng.normal(size=h)
        upstream = rng.normal(size=(n, h))
        out, grads = _grads_through(
            residual_norm, (x, np.zeros((n, 1)), np.zeros((1, h)),
                            np.zeros(h), gain, bias), upstream)
        ref_out, *ref_grads = layer_norm_reference(x, gain, bias, upstream)
        assert np.array_equal(out, ref_out)
        for got, want in zip([grads[0], *grads[4:]], ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("n, k, m", [(1, 3, 2), (6, 5, 8)])
    def test_residual_norm_matches_unfused_reference(self, rng, n, k, m,
                                                     rate):
        inputs = [rng.normal(size=s)
                  for s in ((n, m), (n, k), (k, m), (m,), (m,), (m,))]
        upstream = rng.normal(size=(n, m))
        out, grads = _grads_through(
            lambda *t: residual_norm(*t, rate, np.random.default_rng(4)),
            inputs, upstream)
        (keep,) = _keeps(4, rate, (n, m))
        ref_out, *ref_grads = residual_norm_reference(*inputs, keep, upstream)
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_self_attention_matches_unfused_reference(self, rng, n_heads,
                                                      rate):
        b, t = KEY_REAL.shape
        inputs = [rng.normal(size=s)
                  for s in ((b * t, 3), (3, 4), (4,), (3, 4), (3, 4), (4,))]
        upstream = rng.normal(size=(b * t, 4))
        out, grads = _grads_through(
            lambda *x: self_attention(*x, KEY_REAL, n_heads, rate,
                                      np.random.default_rng(4)),
            inputs, upstream)
        (keep,) = _keeps(4, rate, (b, n_heads, t, t))
        ref_out, *ref_grads = self_attention_reference(
            *inputs, KEY_REAL, n_heads, keep, upstream)
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_block_matches_unfused_reference(self, rng, rate):
        # encoder_block against the unfused ops it replaced: h feeds the
        # attention sublayer's residual and its q, k and v maps, and h1
        # the FFN's residual and first map, so each sums its gradients
        # in the unfused reverse-tape order: the residual first, then v,
        # k and q (h), or the FFN (h1)
        b, t = KEY_REAL.shape
        hid, ffn = 4, 6
        shapes = [(b * t, hid), (hid, hid), (hid,), (hid, hid), (hid, hid),
                  (hid,), (hid, hid), (hid,), (hid,), (hid,), (hid, ffn),
                  (ffn,), (ffn, hid), (hid,), (hid,), (hid,)]
        for n_heads in (1, 2):
            arrays = [rng.normal(size=s) for s in shapes]
            upstream = rng.normal(size=(b * t, hid))
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = encoder_block(*tensors, KEY_REAL, n_heads, rate, rate,
                                np.random.default_rng(9))
            backward(weighted_sum(out, upstream))

            keeps = _keeps(9, rate, (b, n_heads, t, t), (b * t, hid),
                           (b * t, hid))
            (ha, wq, bq, wk, wv, bv, wo, bo, ga1, ca1, w1, b1, w2, b2, ga2,
             ca2) = arrays
            zero = np.zeros_like(upstream)
            mix = self_attention_reference(ha, wq, bq, wk, wv, bv, KEY_REAL,
                                           n_heads, keeps[0], zero)[0]
            r1 = residual_norm_reference(ha, mix, wo, bo, ga1, ca1, keeps[1],
                                         zero)[0]
            act = linear_relu_reference(r1, w1, b1, np.zeros((b * t, ffn)))[0]
            ref_out, d_r1, d_act, dw2, db2, dg2, dc2 = residual_norm_reference(
                r1, act, w2, b2, ga2, ca2, keeps[2], upstream)
            _, d_r1_ffn, dw1, db1 = linear_relu_reference(r1, w1, b1, d_act)
            _, dh, d_mix, dwo, dbo, dg1, dc1 = residual_norm_reference(
                ha, mix, wo, bo, ga1, ca1, keeps[1], d_r1 + d_r1_ffn)
            _, dh, dwq, dbq, dwk, dwv, dbv = self_attention_reference(
                ha, wq, bq, wk, wv, bv, KEY_REAL, n_heads, keeps[0], d_mix,
                dh)
            assert np.array_equal(out.data, ref_out)
            want = [dh, dwq, dbq, dwk, dwv, dbv, dwo, dbo, dg1, dc1, dw1, db1,
                    dw2, db2, dg2, dc2]
            for i, (got, w) in enumerate(zip(tensors, want, strict=True)):
                assert np.array_equal(got.grad, w), (n_heads, shapes[i])
            reset_graph()

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_depth_attention_matches_unfused_reference(self, rng, rate):
        # L = 3 layers of J = 2 heads, dk = 3 key columns against 4 value
        # columns per head: no square shape can hide a misplaced block
        L, J, dk, h, n = 3, 2, 3, 8, 6
        arrays = _depth_inputs(lambda s: rng.normal(size=s), L, J, dk, h, n)
        tensors = [[Tensor(a, requires_grad=True) for a in v]
                   if isinstance(v, list) else Tensor(v, requires_grad=True)
                   for v in arrays]
        upstream = rng.normal(size=(n, 2))
        out, weights = depth_attention(*tensors, rate, rate,
                                       np.random.default_rng(4))
        backward(weighted_sum(out, upstream))
        keeps = _keeps(4, rate, *[(n, h)] * L, *[(n, J * dk)] * L,
                       (n, L, J))
        ref_out, ref_weights, *ref_grads = depth_attention_reference(
            *arrays, keeps[:L], keeps[L:2 * L], keeps[-1], upstream)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(weights, ref_weights)
        if rate:
            assert (weights == 0.0).any()
        for got, want in zip(_flat(tensors), _flat(ref_grads), strict=True):
            assert np.array_equal(got.grad, want)

    def test_each_op_records_one_node(self, rng):
        ones, zeros = Tensor(np.ones((4, 4))), Tensor(np.zeros(4))
        x = embed(Tensor(rng.normal(size=(5, 4)), requires_grad=True), ones,
                  [4, 0, 4], [0, 1, 2])
        h = linear(x, ones, zeros)
        r = linear_relu(h, ones, zeros)
        gain = Tensor(np.ones(4))
        out = encoder_block(r, ones, zeros, ones, ones, zeros, ones, zeros,
                            gain, zeros, ones, zeros, ones, zeros, gain,
                            zeros, np.ones((1, 3), dtype=bool), 2)
        # two layers of two heads with 2 key columns each
        depth_attention([r, out], [ones] * 2, [zeros] * 2,
                        Tensor(np.ones((8, 1))), zeros, [ones] * 2,
                        [zeros] * 2, ones, zeros)
        assert len(active_graph().nodes) == 5

    @pytest.mark.parametrize("shapes, message", [
        pytest.param(dict(states=[(5, 4)] * 3),
                     "needs L states of one shape and L each of w_k, b_k, "
                     "w_v and b_v, got [(5, 4), (5, 4), (5, 4)] and "
                     "[2, 2, 2, 2]", id="three_states_two_maps"),
        pytest.param(dict(states=[(5, 4), (6, 4)]),
                     "got [(5, 4), (6, 4)] and [2, 2, 2, 2]",
                     id="states_differ"),
        pytest.param(dict(w_k=[(4, 6), (4, 5)]),
                     "needs states [n x h], w_k [h x J*dk] and b_k [J*dk], "
                     "got (5, 4), (4, 6), (4, 5), (6,) and (6,)",
                     id="w_k_differ"),
        pytest.param(dict(w_a=(12,)),
                     "needs w_a [L*J*dk x 1] = (12, 1), got (12,)",
                     id="w_a_not_a_column"),
        pytest.param(dict(w_a=(6, 1)),
                     "needs w_a [L*J*dk x 1] = (12, 1), got (6, 1)",
                     id="w_a_one_layer"),
        pytest.param(dict(b_a=(5,)),
                     "needs b_a [L*J] for L = 2 and J heads that split 6 "
                     "key columns, got (5,)", id="b_a_not_L_times_J"),
        pytest.param(dict(b_a=(8,)),
                     "needs b_a [L*J] for L = 2 and J heads that split 6 "
                     "key columns, got (8,)", id="b_a_heads_do_not_split"),
        pytest.param(dict(w_v=[(4, 3)] * 2, b_v=[(3,)] * 2, w_out=(3, 2)),
                     "depth_attention: 3 value columns do not split into 2 "
                     "heads", id="values_do_not_split"),
        pytest.param(dict(w_out=(5, 2)),
                     "needs w_v [h x m], w_out [m x c] and b_out [c], got "
                     "(4, 4), (5, 2) and (2,)", id="w_out_rows"),
    ])
    def test_depth_attention_rejects_bad_shapes(self, shapes, message):
        inputs = _depth_inputs(lambda s: Tensor(np.ones(s)), **shapes)
        with pytest.raises(ValueError, match=re.escape(message)):
            depth_attention(*inputs)

    @pytest.mark.parametrize("x, w, b", BAD_AFFINE_SHAPES)
    def test_linear_rejects_bad_shapes(self, x, w, b):
        with pytest.raises(ValueError, match=re.escape(
                f"got {x}, {w} and {b}")):
            linear(*(Tensor(np.ones(s)) for s in (x, w, b)))

    @pytest.mark.parametrize("x, w, b", BAD_AFFINE_SHAPES)
    def test_linear_relu_rejects_bad_shapes(self, x, w, b):
        with pytest.raises(ValueError, match=re.escape(
                f"linear_relu needs x [n x k], w [k x m] and b [m], "
                f"got {x}, {w} and {b}")):
            linear_relu(*(Tensor(np.ones(s)) for s in (x, w, b)))

    @pytest.mark.parametrize("x, gain, bias", [
        pytest.param((4,), (4,), (4,), id="x_not_2d"),
        pytest.param((3, 4), (3,), (4,), id="gain_not_x_cols"),
        pytest.param((3, 4), (4,), (1, 4), id="bias_not_x_cols"),
    ])
    def test_layer_norm_rejects_bad_shapes(self, x, gain, bias):
        # x here is residual_norm's residual h, beside a [3 x 4] x @ w
        sublayer = (Tensor(np.ones(s)) for s in ((3, 2), (2, 4), (4,)))
        with pytest.raises(ValueError, match=re.escape(
                f"got {x}, {gain} and {bias}")):
            residual_norm(Tensor(np.ones(x)), *sublayer,
                          Tensor(np.ones(gain)), Tensor(np.ones(bias)))

    @pytest.mark.parametrize("x, w, b", [
        pytest.param((3,), (3, 4), (4,), id="x_not_2d"),
        pytest.param((3, 2), (3, 4), (4,), id="inner_mismatch"),
        pytest.param((3, 3), (3, 4), (3,), id="bias_not_w_cols"),
    ])
    def test_residual_sublayer_rejects_bad_shapes(self, x, w, b):
        ones = [Tensor(np.ones(s)) for s in ((3, 4), x, w, b, (4,), (4,))]
        with pytest.raises(ValueError, match=re.escape(
                f"residual_norm needs x [n x k], w [k x m] and b [m], "
                f"got {x}, {w} and {b}")):
            residual_norm(*ones)

    @pytest.mark.parametrize("shapes", [
        pytest.param([(12,), (12, 4), (4,), (12, 4), (12, 4), (4,)],
                     id="h_not_2d"),
        pytest.param([(12, 3), (3, 4), (4,), (3, 2), (3, 4), (4,)],
                     id="w_k_differs"),
        pytest.param([(12, 3), (3, 4), (4,), (3, 4), (3, 4), (2,)],
                     id="b_v_not_w_cols"),
        pytest.param([(12, 3), (4, 4), (4,), (4, 4), (4, 4), (4,)],
                     id="inner_mismatch"),
    ])
    def test_self_attention_rejects_bad_shapes(self, shapes):
        h, w_q, b_q, w_k, w_v, b_v = shapes
        with pytest.raises(ValueError, match=re.escape(
                "self_attention needs h [n x k], w_q, w_k and w_v [k x m], "
                f"b_q and b_v [m], got {h}, {w_q}, {w_k}, {w_v}, {b_q} and "
                f"{b_v}")):
            self_attention(*(Tensor(np.ones(s)) for s in shapes), KEY_REAL, 2)


    @pytest.mark.parametrize("w_ff1, b_ff1", [
        pytest.param((5, 6), (6,), id="w_ff1_rows"),
        pytest.param((4, 6), (5,), id="b_ff1_not_w_cols"),
    ])
    def test_block_rejects_bad_ffn_shapes(self, w_ff1, b_ff1):
        shapes = [(12, 4), (4, 4), (4,), (4, 4), (4, 4), (4,), (4, 4), (4,),
                  (4,), (4,), w_ff1, b_ff1, (6, 4), (4,), (4,), (4,)]
        with pytest.raises(ValueError, match=re.escape(
                "encoder_block needs x [n x k], w [k x m] and b [m], got "
                f"(12, 4), {w_ff1} and {b_ff1}")):
            encoder_block(*(Tensor(np.ones(s)) for s in shapes), KEY_REAL, 2)


class TestElementwise:
    @pytest.mark.parametrize("op", [add])
    @pytest.mark.parametrize("a_shape, b_shape", [
        pytest.param((3, 4), (4,), id="row"),
        pytest.param((3, 4), (3, 1), id="column"),
        pytest.param((3, 1), (3, 4), id="grows"),
        pytest.param((3, 2), (2, 3), id="transposed"),
    ])
    def test_needs_one_shape(self, op, a_shape, b_shape):
        a, b = Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape))
        with pytest.raises(ValueError, match=re.escape(
                f"{op.__name__} needs two tensors of one shape, got "
                f"{a_shape} and {b_shape}")):
            op(a, b)


class TestFiniteDifferenceInputs:
    def test_non_finite_error_fails_and_names_component(self):
        # at 2: analytic inf against numeric inf - inf = nan, no ratio to
        # trust; at 0: f() is 0 * inf = nan on every call, which is
        # deterministic, not a live rng
        for value in (2.0, 0.0):
            x = Tensor([[value]], requires_grad=True)
            with np.errstate(invalid="ignore"):
                report = finite_diff_check(
                    lambda: weighted_sum(x, [[np.inf]]), [("x", x)])
            assert report.passed is False
            assert report.worst_param == "x[0]"

    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf, -1e-5])
    def test_bad_eps_rejected(self, eps):
        # tol is held to the same rule as eps
        x = Tensor([1.0, 2.0], requires_grad=True)
        for name in ("eps", "tol"):
            with pytest.raises(ValueError, match=name):
                finite_diff_check(lambda: sum_all(x), [("x", x)],
                                  **{name: eps})


def _attention_inputs(rng, width, scale=1.0):
    """h [B*T x 3] and the q, k and v maps of a self_attention of the
    given width over KEY_REAL's batch, as arrays in argument order."""
    b, t = KEY_REAL.shape
    return [rng.normal(size=s) * scale for s in
            ((b * t, 3), (3, width), (width,), (3, width), (3, width),
             (width,))]


class TestAttention:
    def test_matches_per_sentence_per_head_oracle(self, rng):
        b, t, width, n_heads = *KEY_REAL.shape, 6, 2
        h, w_q, b_q, w_k, w_v, b_v = inputs = _attention_inputs(rng, width)
        out = self_attention(*map(Tensor, inputs), KEY_REAL, n_heads)
        q, k, v = h @ w_q + b_q, h @ w_k, h @ w_v + b_v
        dh = width // n_heads
        for s in range(b):
            n_real = int(KEY_REAL[s].sum())
            rows = slice(s * t, (s + 1) * t)
            for a in range(n_heads):
                cols = slice(a * dh, (a + 1) * dh)
                scores = q[rows, cols] @ k[rows, cols][:n_real].T / math.sqrt(dh)
                w = np.exp(scores - scores.max(axis=1, keepdims=True))
                w /= w.sum(axis=1, keepdims=True)
                expect = w @ v[rows, cols][:n_real]
                assert np.allclose(out.data[rows, cols], expect, atol=1e-14)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_pad_key_gets_exactly_zero_weight(self, rng, n_heads, rate):
        # h is one-hot per key position within each head and v = h, so
        # the output row of a query is its attention weights over the T
        # keys
        b, t = KEY_REAL.shape
        width = n_heads * t
        eye = np.tile(np.eye(t), (b, n_heads))
        out = self_attention(
            Tensor(eye), Tensor(rng.normal(size=(width, width)) * 3),
            Tensor(rng.normal(size=width)),
            Tensor(rng.normal(size=(width, width)) * 3),
            Tensor(np.eye(width)), Tensor(np.zeros(width)), KEY_REAL,
            n_heads, rate, np.random.default_rng(3))
        weights = out.data.reshape(b, t, n_heads, t)
        pad_key = ~KEY_REAL[:, None, None, :].repeat(t, 1).repeat(n_heads, 2)
        assert np.all(weights[pad_key] == 0.0)
        assert np.any(weights[~pad_key] != 0.0)
        if rate == 0.0:
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_gradients_pass_fd(self, rng, n_heads, rate):
        inputs = [Tensor(a, requires_grad=True)
                  for a in _attention_inputs(rng, 4)]
        w = rng.normal(size=(inputs[0].shape[0], 4))

        def f():
            # a fresh generator per call draws the same dropout mask
            drop_rng = np.random.default_rng(11)
            out = self_attention(*inputs, KEY_REAL, n_heads, rate, drop_rng)
            return weighted_sum(out, w)

        # some of h's components carry small gradients, where central
        # differences read up to 2e-6 relative error at a step of 1e-5
        # (rounding) and 3e-6 at 1e-4 (truncation); at 3e-5 both stay
        # below 2.1e-7 on all four cases
        _fd_on(f, inputs, eps=3e-5)

    def test_dropout_without_rng_rejected(self, rng):
        inputs = map(Tensor, _attention_inputs(rng, 4))
        with pytest.raises(ValueError, match="above 0 and needs an rng"):
            self_attention(*inputs, KEY_REAL, 2, rate=0.1)

    @pytest.mark.parametrize("n_heads, key_real, match", [
        pytest.param(3, KEY_REAL, "heads", id="indivisible-width"),
        pytest.param(2, KEY_REAL.reshape(-1), r"\[B, T\]", id="flat-mask"),
        pytest.param(2, KEY_REAL[:2], r"\[B, T\]", id="too-few-rows"),
    ])
    def test_bad_layout_rejected(self, rng, n_heads, key_real, match):
        inputs = map(Tensor, _attention_inputs(rng, 4))
        with pytest.raises(ValueError, match=match):
            self_attention(*inputs, key_real, n_heads)


class TestFusedFiniteDifferences:
    """The fused ops' hand-written backwards against central
    differences, dropout live on a fixed generator."""

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_residual_norm_passes_fd(self, rng, rate):
        inputs = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in ((5, 4), (5, 3), (3, 4), (4,), (4,), (4,))]
        w = rng.normal(size=(5, 4))

        def f():
            drop_rng = np.random.default_rng(11)
            return weighted_sum(residual_norm(*inputs, rate, drop_rng), w)

        _fd_on(f, inputs)

    def test_linear_relu_passes_fd(self, rng):
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((5, 3), (3, 4), (4,)))
        up = rng.normal(size=(5, 4))
        _fd_on(lambda: weighted_sum(linear_relu(x, w, b), up), [x, w, b])

    def test_depth_attention_passes_fd(self, rng):
        # inputs at scale 0.5 keep the softmax over layers from saturating.
        # A key map's entry reaches the loss only through that softmax,
        # so some carry gradients near 1e-9 (at scale 1, 2.2e-9 here, read
        # 6.6e-4 off by rounding).  Over 8 generator seeds at scale 0.5
        # and a step of 3e-5 the worst relative error was 1.7e-6
        inputs = _depth_inputs(
            lambda s: Tensor(rng.normal(scale=0.5, size=s),
                             requires_grad=True), L=3, J=2, dk=3, h=4)
        w = rng.normal(size=(5, 2))

        def f():
            drop = np.random.default_rng(11)
            return weighted_sum(depth_attention(*inputs, 0.3, 0.3, drop)[0],
                                w)

        _fd_on(f, _flat(inputs), tol=1e-5, eps=3e-5)

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_block_passes_fd(self, rng, rate):
        b, t = KEY_REAL.shape
        shapes = [(b * t, 4), (4, 4), (4,), (4, 4), (4, 4), (4,), (4, 4),
                  (4,), (4,), (4,), (4, 6), (6,), (6, 4), (4,), (4,), (4,)]
        p = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        w = rng.normal(size=(b * t, 4))

        def f():
            drop = np.random.default_rng(11)
            return weighted_sum(
                encoder_block(*p, KEY_REAL, 2, rate, rate, drop), w)

        _fd_on(f, p)
