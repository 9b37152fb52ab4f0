"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every differentiable operation appends its result to a
thread-local tape, so creation order is a valid topological order and
backward() can walk the tape once, in reverse.

One broadcasting rule: add(a, b) and mul(a, b) take a b that numpy
broadcasts into a's shape (a row [h] on [n x h] for a bias or a gain, a
column [n x 1] for one weight per row), and backward sums b's gradient
over the broadcast axes.  The result always has a's shape: a b that
would grow it, or does not broadcast, is a ValueError naming both
shapes.  No other op broadcasts: linear and layer_norm take their
bias and gain rows at exactly the output width.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

PROB_CLAMP = 1e-12      # floor applied to probabilities before log
MASK_LOGIT = -1e30      # attention score of a masked (PAD) key
NORM_EPS = 1e-12        # added to the row variance in layer_norm
FD_ZERO_TOL = 1e-10     # finite_diff_check: both estimates below = agree

__all__ = [
    "Tensor", "Graph", "active_graph", "reset_graph", "no_grad", "backward",
    "add", "mul", "scale", "linear", "relu", "softmax", "dropout",
    "attention", "layer_norm", "gather_rows", "concat", "reshape", "sum_all",
    "cross_entropy", "finite_diff_check", "GradCheckReport",
    "PROB_CLAMP", "MASK_LOGIT", "NORM_EPS", "FD_ZERO_TOL",
]


class Tensor:
    """A float64 array plus the bookkeeping backward() needs.

    backward() deposits gradients on leaves only: tensors that no op on
    the tape produced, such as parameters and inputs.  An op's output
    keeps grad None.  Repeated backward passes accumulate into a leaf's
    grad (callers reset via zero_grad).
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


class Graph:
    """Execution tape of one thread: nodes in creation order."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []


_LOCAL = threading.local()


def active_graph() -> Graph:
    g = getattr(_LOCAL, "graph", None)
    if g is None:
        g = Graph()
        _LOCAL.graph = g
    return g


def reset_graph() -> None:
    """Drop all recorded nodes of this thread's tape."""
    active_graph().nodes.clear()


def _grad_enabled() -> bool:
    return getattr(_LOCAL, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording (inference, finite differences)."""
    prev = _grad_enabled()
    _LOCAL.grad_enabled = False
    try:
        yield
    finally:
        _LOCAL.grad_enabled = prev


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    if _grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._backward = bwd
        active_graph().nodes.append(out)
    return out


def _acc(pending: dict, t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        cur = pending.get(t)
        pending[t] = g if cur is None else cur + g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable
    requires_grad leaf.  An interior node's gradient goes to its
    backward and is dropped, so the tape holds no gradient arrays.
    loss must be a scalar."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    pending: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for node in reversed(active_graph().nodes):
        g = pending.pop(node, None)
        if g is not None:
            node._backward(g, pending)
    # whatever is left never went through an op: leaves (parameters, inputs)
    for leaf, g in pending.items():
        if leaf.requires_grad:
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _need_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise ValueError(f"{op} needs a 2-D tensor, got shape {x.shape}")


# ---------------------------------------------------------------- arithmetic

def _into(op, a: Tensor, b: Tensor) -> Tensor:
    """op(a, b) under the module's broadcasting rule: b into a's shape."""
    try:
        y = op(a.data, b.data)
    except ValueError:
        pass
    else:
        if y.shape == a.shape:
            return Tensor(y)
    raise ValueError(f"{op.__name__} shape mismatch: {b.shape} does not "
                     f"broadcast into {a.shape}")


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient of a's shape over the axes b was broadcast along."""
    if g.shape == shape:
        return g
    if g.ndim > len(shape):
        return _sum_to(g.sum(axis=0), shape)
    return g.sum(axis=tuple(i for i, n in enumerate(shape) if n == 1),
                 keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _into(np.add, a, b)

    def bwd(g, pending):
        _acc(pending, a, g)
        _acc(pending, b, _sum_to(g, b.shape))

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _into(np.multiply, a, b)

    def bwd(g, pending):
        _acc(pending, a, g * b.data)
        _acc(pending, b, _sum_to(g * a.data, b.shape))

    return _record(out, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(g, pending):
        _acc(pending, x, g * c)

    return _record(out, (x,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: the product is never kept apart from the
    sum.  With zero b it is the plain product.  Backward hands out, in
    this order, b's gradient g summed over rows, x's g @ w.T and w's
    x.T @ g."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise ValueError(f"linear needs x [n x k], w [k x m] and b [m], "
                         f"got {x.shape}, {w.shape} and {b.shape}")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)

    def bwd(g, pending):
        _acc(pending, b, g.sum(axis=0))
        _acc(pending, x, g @ w.data.T)
        _acc(pending, w, x.data.T @ g)

    return _record(out, (x, w, b), bwd)


# -------------------------------------------------------------- nonlinearity

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def bwd(g, pending):
        # subgradient 0 at exactly 0
        _acc(pending, x, g * (x.data > 0.0))

    return _record(out, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-stable softmax along one axis (max subtraction)."""
    nd = x.data.ndim
    if nd == 0:
        raise ValueError("softmax needs at least one axis")
    ax = axis if axis >= 0 else nd + axis
    if not 0 <= ax < nd:
        raise ValueError(f"softmax axis {axis} out of range for shape {x.shape}")
    if x.data.shape[ax] == 0:
        raise ValueError("softmax along an empty axis")
    z = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=ax, keepdims=True)
    out = Tensor(y)

    def bwd(g, pending):
        dot = (g * y).sum(axis=ax, keepdims=True)
        _acc(pending, x, y * (g - dot))

    return _record(out, (x,), bwd)


def _check_rate(rate: float, rng) -> None:
    """A dropout rate is in [0, 1), and one above 0 draws from rng."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate > 0.0 and rng is None:
        raise ValueError(f"dropout rate {rate} is above 0 and needs an rng, "
                         f"got None")


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/(1-rate).  rate=0 is
    the identity (returns x itself, no tape node)."""
    _check_rate(rate, rng)
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep)

    def bwd(g, pending):
        _acc(pending, x, g * keep)

    return _record(out, (x,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, key_real, n_heads: int,
              rate: float = 0.0,
              rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention within each sentence
    of a padded batch, as one op.

    q, k and v are [B*T x H], row b * T + n holding token n of sentence
    b; key_real is the [B, T] bool mask of real tokens.  Per sentence
    and head: softmax((Q Kt) / sqrt(H / n_heads)) over its own keys,
    PAD keys set to MASK_LOGIT first, so exp() gives them exactly zero
    weight.  With rate > 0, inverted dropout on those weights draws one
    [B, n_heads, T, T] mask from rng.  Returns the heads' P V merged
    back to [B*T x H].  No [B*T x B*T] array is ever built.
    """
    for name, t in (("q", q), ("k", k), ("v", v)):
        _need_2d(t, "attention")
        if t.shape != q.shape:
            raise ValueError(f"attention: {name} has shape {t.shape}, "
                             f"q has {q.shape}")
    real = np.asarray(key_real, dtype=bool)
    if real.ndim != 2 or real.size != q.shape[0]:
        raise ValueError(f"attention: key_real of shape {real.shape} does "
                         f"not match {q.shape[0]} rows as [B, T]")
    width = q.shape[1]
    if n_heads < 1 or width % n_heads:
        raise ValueError(f"attention: {width} columns do not split into "
                         f"{n_heads} heads")
    _check_rate(rate, rng)
    b, t = real.shape
    dh = width // n_heads
    inv_sqrt = 1.0 / math.sqrt(dh)

    def heads(x):       # [B*T x H] -> contiguous [B, heads, T, dh]
        return np.ascontiguousarray(
            x.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3))

    def merge(x):       # [B, heads, T, dh] -> [B*T x H]
        return x.transpose(0, 2, 1, 3).reshape(b * t, width)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scores = np.where(real[:, None, None, :],
                      (qh @ kh.transpose(0, 1, 3, 2)) * inv_sqrt, MASK_LOGIT)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    keep = None
    if rate > 0.0:
        keep = (rng.random(p.shape) >= rate) / (1.0 - rate)
    pd = p if keep is None else p * keep
    out = Tensor(merge(pd @ vh))

    def bwd(g, pending):
        go = heads(g)
        _acc(pending, v, merge(pd.transpose(0, 1, 3, 2) @ go))
        dp = go @ vh.transpose(0, 1, 3, 2)
        if keep is not None:
            dp *= keep
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * inv_sqrt
        _acc(pending, q, merge(ds @ kh))
        _acc(pending, k, merge(ds.transpose(0, 1, 3, 2) @ qh))

    return _record(out, (q, k, v), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Affine layer norm as one node: each row standardized,
    y = (row - mean) / sqrt(pop_var + NORM_EPS), then y * gain + bias.
    Only the output is recorded; y stays in the closure for backward,
    which gives bias, then gain, then x their gradients."""
    if (x.data.ndim != 2 or gain.shape != (x.shape[1],)
            or bias.shape != (x.shape[1],)):
        raise ValueError(f"layer_norm needs x [n x h], gain [h] and bias "
                         f"[h], got {x.shape}, {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    y = xc * inv
    out = y * gain.data
    out += bias.data

    def bwd(g, pending):
        _acc(pending, bias, g.sum(axis=0))
        _acc(pending, gain, (g * y).sum(axis=0))
        gy = g * gain.data
        gm = gy.mean(axis=1, keepdims=True)
        gyy = (gy * y).mean(axis=1, keepdims=True)
        _acc(pending, x, inv * (gy - gm - y * gyy))

    return _record(Tensor(out), (x, gain, bias), bwd)


# ------------------------------------------------------------ shape plumbing

def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows x[indices].  Backward scatter-adds, so repeated
    indices accumulate (embedding lookups rely on this); strictly
    increasing indices, such as word rows, own one gradient row each,
    which backward writes directly."""
    _need_2d(x, "gather_rows")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows needs a 1-D index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(
            f"row index out of range: valid [0, {x.shape[0]}), got "
            f"[{idx.min()}, {idx.max()}]")
    out = Tensor(x.data[idx])

    def bwd(g, pending):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            if idx.size < 2 or (idx[1:] > idx[:-1]).all():
                dx[idx] = g
            else:
                np.add.at(dx, idx, g)
            _acc(pending, x, dx)

    return _record(out, (x,), bwd)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Join tensors of one rank along axis; every other axis must agree.
    Backward hands each part its slice of the gradient."""
    parts = list(parts)
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError:
        raise ValueError(f"concat cannot join {[p.shape for p in parts]} "
                         f"along axis {axis}") from None

    def bwd(g, pending):
        cuts = np.cumsum([p.shape[axis] for p in parts])[:-1]
        for p, gp in zip(parts, np.split(g, cuts, axis=axis)):
            _acc(pending, p, gp)

    return _record(out, tuple(parts), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries, in row-major order, in a new shape."""
    if math.prod(shape) != x.data.size:
        raise ValueError(f"reshape: {x.shape} does not fit into {shape}")
    out = Tensor(x.data.reshape(shape))

    def bwd(g, pending):
        _acc(pending, x, g.reshape(x.shape))

    return _record(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd(g, pending):
        _acc(pending, x, np.broadcast_to(g, x.data.shape).copy())

    return _record(out, (x,), bwd)


# --------------------------------------------------------------------- loss

def cross_entropy(probabilities: Tensor, targets) -> Tensor:
    """Mean over rows of -ln p[target], p clamped at PROB_CLAMP.

    Takes probabilities (each row must already sum to 1 within 1e-6),
    not logits; pair with softmax."""
    _need_2d(probabilities, "cross_entropy")
    p = probabilities.data
    n, c = p.shape
    if n == 0:
        raise ValueError("cross_entropy needs at least one row")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (n,):
        raise ValueError(f"targets shape {t.shape} does not match {n} rows")
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"target class out of range [0, {c}): {t.min()}..{t.max()}")
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} is not a distribution (sums to {sums[i]!r})")
    picked = p[np.arange(n), t]
    clamped = np.maximum(picked, PROB_CLAMP)
    out = Tensor(-np.log(clamped).mean())

    def bwd(g, pending):
        if probabilities.requires_grad:
            dp = np.zeros_like(p)
            live = picked > PROB_CLAMP  # clamp region is flat
            dp[np.arange(n), t] = np.where(live, -1.0 / clamped, 0.0) / n
            _acc(pending, probabilities, dp * g)

    return _record(out, (probabilities,), bwd)


# ----------------------------------------------------------- gradient check

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_checked: int
    passed: bool


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare backward() gradients of f() against central differences.

    f is nullary, returns a scalar Tensor, and must be deterministic
    (it is evaluated twice up front to catch live dropout or an unseeded
    rng).  Every component of every parameter is perturbed by +-eps, so
    keep this at desk scale.  Relative error per component is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    Components where both estimates are below FD_ZERO_TOL count as exact
    agreement: on a flat direction (a self-attention key bias shifts
    every score of a query row equally, which softmax cancels) the true
    derivative is zero and both sides measure only rounding jitter, so
    their ratio says nothing about gradient correctness.  A non-finite
    estimate on either side is a relative error of inf, a failure.
    eps and tol must be finite and > 0.
    """
    for name, value in (("eps", eps), ("tol", tol)):
        if not 0.0 < value < np.inf:
            raise ValueError(
                f"{name} must be a finite number > 0, got {value}")
    params = list(params)
    with no_grad():
        base = f().item()
        again = f().item()
    # an f() that is NaN every time is deterministic; the loop below
    # then fails it as non-finite
    if base != again and not (np.isnan(base) and np.isnan(again)):
        raise ValueError(
            "f() is not deterministic between calls; disable dropout and "
            "fix all rng state before checking gradients")

    for _, p in params:
        p.zero_grad()
    reset_graph()
    backward(f())
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params
    }
    reset_graph()

    worst = 0.0
    worst_name = ""
    n_checked = 0
    with no_grad():
        for name, p in params:
            flat = p.data.reshape(-1)
            ga = analytic[name].reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                f_plus = f().item()
                flat[i] = saved - eps
                f_minus = f().item()
                flat[i] = saved
                numeric = (f_plus - f_minus) / (2.0 * eps)
                a = ga[i]
                if not (np.isfinite(a) and np.isfinite(numeric)):
                    rel = np.inf
                elif max(abs(a), abs(numeric)) < FD_ZERO_TOL:
                    rel = 0.0
                else:
                    rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                n_checked += 1
                if rel > worst:
                    worst = rel
                    worst_name = f"{name}[{i}]"
    worst = float(worst)
    return GradCheckReport(worst, worst_name, n_checked, worst < tol)
