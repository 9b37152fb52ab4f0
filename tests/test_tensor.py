"""Tensor core: forward values against hand-computed oracles, backward
against central differences, and the contract errors."""
import math
import re

import numpy as np
import pytest

from gedlab.tensor import (
    GradCheckReport, Tensor, active_graph, add, attention, backward, concat,
    cross_entropy, dropout, finite_diff_check, gather_rows, layer_norm,
    linear, mul, no_grad, relu, reset_graph, reshape, scale, softmax,
    sum_all,
)
from oracles import layer_norm_reference, linear_reference


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


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

    def test_softmax_uniform(self):
        y = softmax(Tensor([1.0, 1.0]), axis=0)
        assert np.allclose(y.data, [0.5, 0.5], atol=1e-15)

    def test_softmax_log2(self):
        y = softmax(Tensor([math.log(2.0), 0.0, 0.0]), axis=0)
        assert np.allclose(y.data, [0.5, 0.25, 0.25], atol=1e-15)

    def test_softmax_extreme_logits_stay_finite(self):
        y = softmax(Tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(y.data))
        assert abs(y.data[0] - 1.0) < 1e-12
        assert abs(y.data[1]) < 1e-12

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(7, 5)) * 10)
        y = softmax(x, axis=1)
        assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y.data >= 0)

    def test_softmax_empty_axis_errors(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(Tensor(np.zeros((3, 0))), axis=1)

    def test_relu_values(self):
        y = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(y.data, [0.0, 0.0, 2.0])

    def test_relu_matches_mask_product(self, rng):
        x = rng.normal(size=(4, 6))
        assert np.array_equal(relu(Tensor(x)).data, x * (x > 0))

    def test_row_norm_standardizes(self, rng):
        # layer_norm with gain 1 and bias 0 is the bare row norm
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(10, 16)))
        y = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.all(np.abs(y.mean(axis=1)) < 1e-8)
        assert np.all(np.abs(y.var(axis=1) - 1.0) < 1e-8)

    def test_cross_entropy_half(self):
        loss = cross_entropy(Tensor([[0.5, 0.5]]), [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-15

    def test_cross_entropy_onehot_is_zero(self):
        loss = cross_entropy(Tensor([[1.0, 0.0]]), [0])
        assert loss.item() == 0.0

    def test_cross_entropy_two_rows(self):
        # (-ln 0.9 - ln 0.75) / 2, computed with math.log
        expect = (-math.log(0.9) - math.log(0.75)) / 2.0
        assert abs(expect - 0.1965212940548036) < 1e-15
        loss = cross_entropy(Tensor([[0.9, 0.1], [0.25, 0.75]]), [0, 1])
        assert abs(loss.item() - expect) < 1e-12

    def test_cross_entropy_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="row 0"):
            cross_entropy(Tensor([[0.7, 0.7]]), [0])

    def test_cross_entropy_rejects_bad_target(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor([[0.5, 0.5]]), [2])

    def test_concat_slice_roundtrip(self, rng):
        a = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(3, 4)))
        cat = concat([a, b])
        assert cat.shape == (3, 6)
        assert np.array_equal(cat.data[:, 2:], b.data)
        back = reshape(reshape(cat, (3, 2, 3)), (3, 6))
        assert np.array_equal(back.data, cat.data)
        assert np.array_equal(concat([a, a], axis=0).data,
                              np.vstack([a.data, a.data]))

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
        x = Tensor([3.0], requires_grad=True)
        backward(sum_all(mul(x, x)))
        assert np.allclose(x.grad, [6.0])

    def test_fanout_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_all(add(x, x)))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([5.0], requires_grad=True)
        loss = sum_all(mul(x, x))
        backward(loss)
        backward(loss)
        assert np.allclose(x.grad, [20.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(add(x, x))

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        backward(sum_all(relu(x)))
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = mul(x, x)
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
        w = Tensor(rng.normal(size=(len(idx), 3)))
        backward(sum_all(mul(gather_rows(x, idx), w)))
        want = np.zeros((6, 3))
        np.add.at(want, idx, w.data)
        assert np.array_equal(x.grad, want)


def _fd_on(op_builder, tensors, tol=1e-6, eps=1e-5):
    """Finite-difference every input of a composed op."""
    params = [(f"t{i}", t) for i, t in enumerate(tensors)]
    report = finite_diff_check(op_builder, params, eps=eps, tol=tol)
    assert report.passed, (
        f"max rel err {report.max_rel_err:.3e} at {report.worst_param}")
    return report


class TestFiniteDifferences:
    def test_linear_plus_square(self, rng):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        a = Tensor(rng.normal(size=(4, 3)))
        report = _fd_on(
            lambda: sum_all(add(mul(w, w), mul(w, a))), [w], tol=1e-8)
        assert report.n_checked == 12

    def test_matmul_chain(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        zero = Tensor(np.zeros(2))
        _fd_on(lambda: sum_all(mul(linear(a, b, zero), linear(a, b, zero))),
               [a, b])

    def test_softmax_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        targets = rng.integers(0, 3, size=5)
        _fd_on(lambda: cross_entropy(softmax(logits, axis=1), targets),
               [logits])

    def test_row_norm_with_affine(self, rng):
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        gain = Tensor(rng.normal(size=8), requires_grad=True)
        bias = Tensor(rng.normal(size=8), requires_grad=True)
        _fd_on(
            lambda: sum_all(mul(y := layer_norm(x, gain, bias), y)),
            [x, gain, bias])

    def test_linear(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        _fd_on(lambda: sum_all(mul(y := linear(x, w, b), y)), [x, w, b])

    def test_relu_away_from_kink(self, rng):
        x = Tensor(rng.normal(size=(6, 6)) + np.sign(rng.normal(size=(6, 6))) * 0.5,
                   requires_grad=True)
        _fd_on(lambda: sum_all(mul(relu(x), relu(x))), [x])

    def test_shape_plumbing_ops(self, rng):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        s = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

        def build():
            cat = concat([a, b])
            r = reshape(mul(cat, s), (5, 3))
            return sum_all(mul(r, r))

        _fd_on(build, [a, b, s])

    def test_gather_with_repeats(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = [0, 2, 2, 4, 0]
        _fd_on(lambda: sum_all(mul(g := gather_rows(table, idx), g)), [table])

    def test_scale_op(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        _fd_on(lambda: sum_all(mul(scale(x, 2.5), scale(x, 2.5))), [x])

    def test_nondeterministic_f_rejected(self, rng):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        live = np.random.default_rng(1)
        with pytest.raises(ValueError, match="deterministic"):
            finite_diff_check(
                lambda: sum_all(dropout(x, 0.5, live)), [("x", x)])

    def test_report_fields(self, rng):
        x = Tensor(rng.normal(size=2), requires_grad=True)
        report = finite_diff_check(lambda: sum_all(mul(x, x)), [("x", x)])
        assert isinstance(report, GradCheckReport)
        assert report.n_checked == 2
        assert report.worst_param.startswith("x[")
        assert report.passed


def _grads_through(op, inputs, upstream):
    """op(*inputs) and every input's gradient when upstream flows into
    the output."""
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*tensors)
    backward(sum_all(mul(out, Tensor(upstream))))
    return out.data, [t.grad for t in tensors]


class TestFusedOps:
    """linear and layer_norm against their unfused numpy forms: the same
    expressions in the same order, so every value is bit-identical."""

    @pytest.mark.parametrize("n, k, m", [(1, 3, 2), (5, 4, 3), (7, 1, 6)])
    def test_linear_matches_unfused_reference(self, rng, n, k, m):
        x, w, b = (rng.normal(size=s) for s in ((n, k), (k, m), (m,)))
        upstream = rng.normal(size=(n, m))
        out, grads = _grads_through(linear, (x, w, b), upstream)
        ref_out, *ref_grads = linear_reference(x, w, b, upstream)
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, h", [(1, 4), (6, 8), (3, 2)])
    def test_layer_norm_matches_unfused_reference(self, rng, n, h):
        x = rng.normal(loc=1.0, scale=3.0, size=(n, h))
        gain, bias = rng.normal(size=h), rng.normal(size=h)
        upstream = rng.normal(size=(n, h))
        out, grads = _grads_through(layer_norm, (x, gain, bias), upstream)
        ref_out, *ref_grads = layer_norm_reference(x, gain, bias, upstream)
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    def test_each_op_records_one_node(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        h = linear(x, Tensor(np.ones((4, 4))), Tensor(np.zeros(4)))
        layer_norm(h, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert len(active_graph().nodes) == 2

    @pytest.mark.parametrize("x, w, b", [
        pytest.param((4,), (4, 2), (2,), id="x_not_2d"),
        pytest.param((3, 4), (5, 2), (2,), id="inner_mismatch"),
        pytest.param((3, 4), (4, 2), (4,), id="bias_not_w_cols"),
        pytest.param((3, 4), (4, 2), (1, 2), id="bias_is_a_row_matrix"),
        pytest.param((3, 4), (4,), (2,), id="w_not_2d"),
    ])
    def test_linear_rejects_bad_shapes(self, x, w, b):
        with pytest.raises(ValueError, match=re.escape(
                f"got {x}, {w} and {b}")):
            linear(*(Tensor(np.ones(s)) for s in (x, w, b)))

    @pytest.mark.parametrize("x, gain, bias", [
        pytest.param((4,), (4,), (4,), id="x_not_2d"),
        pytest.param((3, 4), (3,), (4,), id="gain_not_x_cols"),
        pytest.param((3, 4), (4,), (1, 4), id="bias_not_x_cols"),
    ])
    def test_layer_norm_rejects_bad_shapes(self, x, gain, bias):
        with pytest.raises(ValueError, match=re.escape(
                f"got {x}, {gain} and {bias}")):
            layer_norm(*(Tensor(np.ones(s)) for s in (x, gain, bias)))


class TestBroadcasting:
    def test_forward_matches_numpy(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        row = Tensor(rng.normal(size=4))
        col = Tensor(rng.normal(size=(3, 1)))
        assert np.array_equal(add(x, row).data, x.data + row.data)
        assert np.array_equal(mul(x, col).data, x.data * col.data)

    def test_bias_gain_and_row_weight(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        gain = Tensor(rng.normal(size=3), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        _fd_on(lambda: sum_all(
            mul(y := mul(mul(add(x, bias), gain), weight), y)),
            [bias, gain, weight])

    @pytest.mark.parametrize("op", [add, mul])
    @pytest.mark.parametrize("a_shape, b_shape", [
        pytest.param((3, 1), (4,), id="grows"),        # result (3, 4)
        pytest.param((4,), (3, 4), id="more_axes"),
        pytest.param((3, 2), (4,), id="no_broadcast"),
    ])
    def test_b_must_broadcast_into_a(self, op, a_shape, b_shape):
        a, b = Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape))
        with pytest.raises(ValueError, match=re.escape(
                f"{b_shape} does not broadcast into {a_shape}")):
            op(a, b)


class TestConcatReshape:
    @pytest.mark.parametrize("shapes, axis", [
        pytest.param([(2, 3), (4, 3), (1, 3)], 0, id="rows"),
        pytest.param([(3, 2), (3, 4)], -1, id="cols"),
        pytest.param([(2,), (3,), (1,)], 0, id="1d_axis0"),
        pytest.param([(2,), (3,)], -1, id="1d_last"),
    ])
    def test_concat_passes_fd(self, rng, shapes, axis):
        parts = [Tensor(rng.normal(size=s), requires_grad=True)
                 for s in shapes]
        weight = Tensor(rng.normal(size=np.concatenate(
            [p.data for p in parts], axis=axis).shape))
        _fd_on(lambda: sum_all(mul(c := mul(concat(parts, axis), weight), c)),
               parts)

    def test_reshape_passes_fd_through_a_4d_round_trip(self, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 2, 1)), requires_grad=True)

        def build():
            y = reshape(mul(reshape(x, (2, 3, 2, 2)), w), (6, 4))
            return sum_all(mul(y, y))

        _fd_on(build, [x, w])

    @pytest.mark.parametrize("shapes, axis", [
        pytest.param([(2, 3), (2, 4)], 0, id="cols_differ"),
        pytest.param([(2, 3), (3, 3)], -1, id="rows_differ"),
        pytest.param([(2, 3), (3,)], 0, id="rank_differs"),
        pytest.param([(2, 3)], 2, id="no_such_axis"),
        pytest.param([], -1, id="nothing"),
    ])
    def test_concat_rejects_disagreeing_axes(self, shapes, axis):
        with pytest.raises(ValueError, match="concat cannot join"):
            concat([Tensor(np.ones(s)) for s in shapes], axis)

    def test_reshape_rejects_a_different_size(self):
        with pytest.raises(ValueError, match=re.escape("(2, 3)")):
            reshape(Tensor(np.ones((2, 3))), (4, 2))


class TestFiniteDifferenceInputs:
    def test_non_finite_error_fails_and_names_component(self):
        # at 2: analytic inf against numeric inf - inf = nan, no ratio to
        # trust; at 0: f() is 0 * inf = nan on every call, which is
        # deterministic, not a live rng
        for value in (2.0, 0.0):
            x = Tensor([[value]], requires_grad=True)
            with np.errstate(invalid="ignore"):
                report = finite_diff_check(
                    lambda: sum_all(mul(x, Tensor([[np.inf]]))), [("x", x)])
            assert report.passed is False
            assert report.worst_param == "x[0]"

    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf, -1e-5])
    def test_bad_eps_rejected(self, eps):
        # tol is held to the same rule as eps
        x = Tensor([1.0, 2.0], requires_grad=True)
        for name in ("eps", "tol"):
            with pytest.raises(ValueError, match=name):
                finite_diff_check(lambda: sum_all(mul(x, x)), [("x", x)],
                                  **{name: eps})


# three sentences padded to T = 4: unpadded, two real tokens, one real token
KEY_REAL = np.array([[True, True, True, True],
                     [True, True, False, False],
                     [True, False, False, False]])


class TestAttention:
    def test_matches_per_sentence_per_head_oracle(self, rng):
        b, t, width, n_heads = *KEY_REAL.shape, 6, 2
        q, k, v = (rng.normal(size=(b * t, width)) for _ in range(3))
        out = attention(Tensor(q), Tensor(k), Tensor(v), KEY_REAL, n_heads)
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
        # v is one-hot per key position within each head, so the output
        # row of a query is its attention weights over the T keys
        b, t = KEY_REAL.shape
        width = n_heads * t
        eye = np.tile(np.eye(t), (b, n_heads))
        q = Tensor(rng.normal(size=(b * t, width)) * 3)
        k = Tensor(rng.normal(size=(b * t, width)) * 3)
        out = attention(q, k, Tensor(eye), KEY_REAL, n_heads, rate,
                        np.random.default_rng(3))
        weights = out.data.reshape(b, t, n_heads, t)
        pad_key = ~KEY_REAL[:, None, None, :].repeat(t, 1).repeat(n_heads, 2)
        assert np.all(weights[pad_key] == 0.0)
        assert np.any(weights[~pad_key] != 0.0)
        if rate == 0.0:
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_gradients_pass_fd(self, rng, n_heads, rate):
        b, t = KEY_REAL.shape
        q, k, v = (Tensor(rng.normal(size=(b * t, 4)), requires_grad=True)
                   for _ in range(3))
        w = Tensor(rng.normal(size=(b * t, 4)))

        def f():
            # a fresh generator per call draws the same dropout mask
            drop_rng = np.random.default_rng(11)
            out = attention(q, k, v, KEY_REAL, n_heads, rate, drop_rng)
            return sum_all(mul(out, w))

        _fd_on(f, [q, k, v])

    def test_dropout_without_rng_rejected(self):
        x = Tensor(np.zeros((12, 4)))
        with pytest.raises(ValueError, match="above 0 and needs an rng"):
            attention(x, x, x, KEY_REAL, 2, rate=0.1)

    @pytest.mark.parametrize("n_heads, key_real, match", [
        pytest.param(3, KEY_REAL, "heads", id="indivisible-width"),
        pytest.param(2, KEY_REAL.reshape(-1), r"\[B, T\]", id="flat-mask"),
        pytest.param(2, KEY_REAL[:2], r"\[B, T\]", id="too-few-rows"),
    ])
    def test_bad_layout_rejected(self, n_heads, key_real, match):
        x = Tensor(np.zeros((12, 4)))
        with pytest.raises(ValueError, match=match):
            attention(x, x, x, key_real, n_heads)
