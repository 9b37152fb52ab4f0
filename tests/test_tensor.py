"""Tensor core: forward values against hand-computed oracles, backward
against central differences, and the contract errors."""
import math

import numpy as np
import pytest

from gedlab.tensor import (
    GradCheckReport, Tensor, add, add_rowvec, backward, concat_cols,
    cross_entropy, dropout, finite_diff_check, gather_rows, matmul, mul,
    mul_rowvec, no_grad, relu, reset_graph, row_norm, scale, scale_rows,
    slice_cols, softmax, sum_all, transpose,
)


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


class TestForwardValues:
    def test_matmul_identity(self):
        i2 = Tensor(np.eye(2))
        v = Tensor([[3.0], [4.0]])
        assert np.array_equal(matmul(i2, v).data, [[3.0], [4.0]])

    def test_matmul_small(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_zero(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((3, 4)))
        assert np.array_equal(matmul(a, b).data, np.zeros((2, 4)))

    def test_matmul_shape_error_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(a, b)

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
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(10, 16)))
        y = row_norm(x).data
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
        cat = concat_cols([a, b])
        assert cat.shape == (3, 6)
        assert np.array_equal(slice_cols(cat, 2, 6).data, b.data)

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

    def test_gather_rows_scatter_adds(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        backward(sum_all(gather_rows(x, [1, 1, 2])))
        assert np.array_equal(x.grad, [[0, 0], [2, 2], [1, 1]])


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
        _fd_on(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), [a, b])

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
            lambda: sum_all(mul(y := add_rowvec(mul_rowvec(row_norm(x), gain),
                                                bias), y)),
            [x, gain, bias])

    def test_relu_away_from_kink(self, rng):
        x = Tensor(rng.normal(size=(6, 6)) + np.sign(rng.normal(size=(6, 6))) * 0.5,
                   requires_grad=True)
        _fd_on(lambda: sum_all(mul(relu(x), relu(x))), [x])

    def test_shape_plumbing_ops(self, rng):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        s = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

        def build():
            cat = concat_cols([a, transpose(b)])
            sl = slice_cols(cat, 1, 4)
            return sum_all(mul(scale_rows(sl, s), scale_rows(sl, s)))

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


class TestFiniteDifferenceInputs:
    def test_non_finite_error_fails_and_names_component(self):
        # analytic inf against numeric inf - inf = nan: no ratio to trust
        x = Tensor([[2.0]], requires_grad=True)
        report = finite_diff_check(
            lambda: sum_all(mul(x, Tensor([[np.inf]]))), [("x", x)])
        assert report.passed is False
        assert report.worst_param == "x[0]"

    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf, -1e-5])
    def test_bad_eps_rejected(self, eps):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            finite_diff_check(lambda: sum_all(mul(x, x)), [("x", x)],
                              eps=eps)
