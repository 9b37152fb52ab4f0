"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every differentiable operation appends its result to a
thread-local tape, so creation order is a valid topological order and
backward() can walk the tape once, in reverse.

No op broadcasts: add takes two tensors of one shape, and the fused
ops take their bias and gain rows at exactly the output width.

The fused ops (linear, linear_relu, self_attention, residual_norm and
depth_attention) record one node each and keep only the arrays their
backwards read.  Each backward hands out its gradients in the order
that separate nodes for the same arithmetic would, so a tensor that
several ops read sums its gradients in the same order, bit for bit.
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
NORM_EPS = 1e-12        # added to the row variance in residual_norm
FD_ZERO_TOL = 1e-10     # finite_diff_check: both estimates below = agree

__all__ = [
    "Tensor", "Graph", "active_graph", "reset_graph", "no_grad", "backward",
    "add", "scale", "linear", "linear_relu", "dropout",
    "self_attention", "residual_norm", "depth_attention", "gather_rows",
    "sum_all",
    "cross_entropy", "finite_diff_check", "GradCheckReport",
    "PROB_CLAMP", "MASK_LOGIT", "NORM_EPS", "FD_ZERO_TOL",
]


class Tensor:
    """A float64 array plus the bookkeeping backward() needs.

    backward() deposits gradients on leaves only: tensors that no op on
    the tape produced, such as parameters and inputs.  An op's output
    keeps grad None.  Repeated backward passes accumulate into a leaf's
    grad (callers reset via zero_grad).

    An op's backward closure holds the op's input Tensors, so any op
    output a caller holds keeps its whole graph alive, reset_graph()
    or not.  Drop it, or keep only its value, before the next forward.
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

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add needs two tensors of one shape, got "
                         f"{a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g, pending):
        _acc(pending, a, g)
        _acc(pending, b, g)

    return _record(out, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(g, pending):
        _acc(pending, x, g * c)

    return _record(out, (x,), bwd)


def _check_affine(op: str, x: Tensor, ws, bs,
                  layout: str = "x [n x k], w [k x m] and b [m]") -> None:
    """x [n x k], every w in ws [k x m] and every b in bs [m], or a
    ValueError naming op's layout and all their shapes."""
    w_shape = ws[0].shape
    if not (x.data.ndim == 2 and len(w_shape) == 2
            and w_shape[0] == x.shape[1]
            and all(w.shape == w_shape for w in ws)
            and all(b.shape == (w_shape[1],) for b in bs)):
        shapes = [str(t.shape) for t in (x, *ws, *bs)]
        raise ValueError(f"{op} needs {layout}, got "
                         f"{', '.join(shapes[:-1])} and {shapes[-1]}")


def _affine(x: Tensor, w: Tensor, b: Tensor | None) -> np.ndarray:
    """x @ w + b as one new array; b None adds nothing."""
    y = x.data @ w.data
    if b is not None:
        y += b.data
    return y


def _affine_grads(pending: dict, x: Tensor, w: Tensor, b: Tensor | None,
                  g: np.ndarray) -> None:
    """Hand out the gradients of x @ w + b for an upstream g, in the
    order of linear's backward: b's (g summed over rows), x's g @ w.T,
    then w's x.T @ g."""
    if b is not None:
        _acc(pending, b, g.sum(axis=0))
    _acc(pending, x, g @ w.data.T)
    _acc(pending, w, x.data.T @ g)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: the product is never kept apart from the
    sum.  With zero b it is the plain product.  Backward hands out, in
    this order, b's gradient g summed over rows, x's g @ w.T and w's
    x.T @ g."""
    _check_affine("linear", x, (w,), (b,))
    out = Tensor(_affine(x, w, b))

    def bwd(g, pending):
        _affine_grads(pending, x, w, b, g)

    return _record(out, (x, w, b), bwd)


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b) as one node: only the output is kept.  Backward
    masks g where the output is not above 0 (the pre-activation's sign;
    subgradient 0 at exactly 0), then runs linear's backward."""
    _check_affine("linear_relu", x, (w,), (b,))
    y = _affine(x, w, b)
    np.maximum(y, 0.0, out=y)
    out = Tensor(y)

    def bwd(g, pending):
        _affine_grads(pending, x, w, b, g * (y > 0.0))

    return _record(out, (x, w, b), bwd)


# -------------------------------------------------------------- nonlinearity

def _check_rate(rate: float, rng) -> None:
    """A dropout rate is in [0, 1), and one above 0 draws from rng."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate > 0.0 and rng is None:
        raise ValueError(f"dropout rate {rate} is above 0 and needs an rng, "
                         f"got None")


def _keep_mask(shape, rate: float, rng) -> np.ndarray | None:
    """Inverted dropout's multiplier: 1/(1-rate) where an entry is kept,
    0 where dropped, written over the uniform draws it is made from;
    None at rate 0, which draws nothing."""
    if rate == 0.0:
        return None
    keep = rng.random(shape)
    return np.divide(keep >= rate, 1.0 - rate, out=keep)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/(1-rate).  rate=0 is
    the identity (returns x itself, no tape node)."""
    _check_rate(rate, rng)
    if rate == 0.0:
        return x
    keep = _keep_mask(x.data.shape, rate, rng)
    out = Tensor(x.data * keep)

    def bwd(g, pending):
        _acc(pending, x, g * keep)

    return _record(out, (x,), bwd)


def self_attention(h: Tensor, w_q: Tensor, b_q: Tensor, w_k: Tensor,
                   w_v: Tensor, b_v: Tensor, key_real, n_heads: int,
                   rate: float = 0.0,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention within each sentence
    of a padded batch, projections included, as one node.

    h is [B*T x k], row b * T + n holding token n of sentence b;
    key_real is the [B, T] bool mask of real tokens.  Queries are
    h @ w_q + b_q, keys h @ w_k (a key bias would add one constant to
    all of a query's scores, which the softmax cancels) and values
    h @ w_v + b_v, each [B*T x m].  Per sentence and head:
    softmax((Q Kt) / sqrt(m / n_heads)) over its own keys, PAD keys set
    to MASK_LOGIT first, so exp() gives them exactly zero weight.  With
    rate > 0, inverted dropout on those weights draws one
    [B, n_heads, T, T] mask from rng.  Returns the heads' P V merged
    back to [B*T x m].  No [B*T x B*T] array is ever built, and only
    the per-head Q, K, V and weights are kept for backward, which
    hands h its gradients through v, then k, then q.
    """
    _check_affine("self_attention", h, (w_q, w_k, w_v), (b_q, b_v),
                  "h [n x k], w_q, w_k and w_v [k x m], b_q and b_v [m]")
    real = np.asarray(key_real, dtype=bool)
    if real.ndim != 2 or real.size != h.shape[0]:
        raise ValueError(f"self_attention: key_real of shape {real.shape} "
                         f"does not match {h.shape[0]} rows as [B, T]")
    width = w_q.shape[1]
    if n_heads < 1 or width % n_heads:
        raise ValueError(f"self_attention: {width} columns do not split "
                         f"into {n_heads} heads")
    _check_rate(rate, rng)
    b, t = real.shape
    dh = width // n_heads
    inv_sqrt = 1.0 / math.sqrt(dh)

    def heads(x):       # [B*T x m] -> contiguous [B, heads, T, dh]
        return np.ascontiguousarray(
            x.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3))

    def merge(x):       # [B, heads, T, dh] -> [B*T x m]
        return x.transpose(0, 2, 1, 3).reshape(b * t, width)

    qh = heads(_affine(h, w_q, b_q))
    kh = heads(_affine(h, w_k, None))
    vh = heads(_affine(h, w_v, b_v))
    p = np.where(real[:, None, None, :],
                 (qh @ kh.transpose(0, 1, 3, 2)) * inv_sqrt, MASK_LOGIT)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = _keep_mask(p.shape, rate, rng)
    out = Tensor(merge((p if keep is None else p * keep) @ vh))

    def bwd(g, pending):
        go = heads(g)
        pd = p if keep is None else p * keep
        gv = merge(pd.transpose(0, 1, 3, 2) @ go)
        dp = go @ vh.transpose(0, 1, 3, 2)
        if keep is not None:
            dp *= keep
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * inv_sqrt
        _affine_grads(pending, h, w_v, b_v, gv)
        _affine_grads(pending, h, w_k, None,
                      merge(ds.transpose(0, 1, 3, 2) @ qh))
        _affine_grads(pending, h, w_q, b_q, merge(ds @ kh))

    return _record(out, (h, w_q, b_q, w_k, w_v, b_v), bwd)


def residual_norm(h: Tensor, x: Tensor, w: Tensor, b: Tensor, gain: Tensor,
                  bias: Tensor, rate: float = 0.0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """A post-norm sublayer's exit as one node:
    layer_norm(h + dropout(x @ w + b)), the layer norm affine, each row
    s of the sum standardized, y = (s - mean) / sqrt(pop_var +
    NORM_EPS), then y * gain + bias.  With rate > 0, inverted dropout
    draws one mask of h's shape from rng.

    Only the output is recorded; y stays in the closure for backward,
    which gives bias, then gain, then h (the residual), then b, x and w
    their gradients."""
    _check_affine("residual_norm", x, (w,), (b,))
    width = w.shape[1]
    if (h.shape != (x.shape[0], width) or gain.shape != (width,)
            or bias.shape != (width,)):
        raise ValueError(f"residual_norm needs h [n x m], gain [m] and bias "
                         f"[m] beside x @ w of {(x.shape[0], width)}, got "
                         f"{h.shape}, {gain.shape} and {bias.shape}")
    _check_rate(rate, rng)
    y = _affine(x, w, b)
    keep = _keep_mask(y.shape, rate, rng)
    if keep is not None:
        y *= keep
    y += h.data                     # s = h + dropout(x @ w + b)
    y -= y.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((y * y).mean(axis=1, keepdims=True) + NORM_EPS)
    y *= inv                        # s standardized: y
    out = y * gain.data
    out += bias.data

    def bwd(g, pending):
        _acc(pending, bias, g.sum(axis=0))
        _acc(pending, gain, (g * y).sum(axis=0))
        gy = g * gain.data
        gm = gy.mean(axis=1, keepdims=True)
        gyy = (gy * y).mean(axis=1, keepdims=True)
        gs = inv * (gy - gm - y * gyy)
        _acc(pending, h, gs)
        _affine_grads(pending, x, w, b, gs if keep is None else gs * keep)

    return _record(Tensor(out), (h, x, w, b, gain, bias), bwd)


def depth_attention(states: Sequence[Tensor], w_k, b_k, w_a: Tensor,
                    b_a: Tensor, w_v, b_v, w_out: Tensor, b_out: Tensor,
                    rate: float = 0.0, attn_rate: float = 0.0,
                    rng: np.random.Generator | None = None):
    """Multi-head multi-layer attention over L states [n x h] up to the
    class logits, as one node.  Layer l's keys relu(states[l] @ w_k[l]
    + b_k[l]) hold J heads' dk columns side by side, J = len(b_a) / L.
    One product with w_a [L*J*dk x 1] laid out block-diagonally, plus
    b_a, scores every (layer, head) pair; a softmax over layers weighs
    each head's columns of the values states[l] @ w_v[l] + b_v[l]; one
    product with w_out stacked L times sums them over layers: logits.

    With rate > 0, dropout draws a mask for every state, then for every
    layer's keys; with attn_rate > 0, one for the weights.  Returns
    (logits, weights [n, L, J] as used).  Backward hands out gradients
    in the order separate nodes would: w_out's L slices in layer order,
    and each state its value gradient before its key gradient.
    """
    L, lens = len(states), [len(p) for p in (w_k, b_k, w_v, b_v)]
    if not L or len({s.shape for s in states}) > 1 or lens != [L] * 4:
        raise ValueError(f"depth_attention needs L states of one shape and "
                         f"L each of w_k, b_k, w_v and b_v, got "
                         f"{[s.shape for s in states]} and {lens}")
    _check_affine("depth_attention", states[0], w_k, b_k,
                  "states [n x h], w_k [h x J*dk] and b_k [J*dk]")
    _check_affine("depth_attention", states[0], w_v, b_v,
                  "states [n x h], w_v [h x m] and b_v [m]")
    n, kw, m = states[0].shape[0], w_k[0].shape[1], w_v[0].shape[1]
    J = b_a.shape[0] // L if b_a.data.ndim == 1 else 0
    if not J or b_a.shape != (L * J,) or kw % J:
        raise ValueError(f"depth_attention needs b_a [L*J] for L = {L} and "
                         f"J heads that split {kw} key columns, got "
                         f"{b_a.shape}")
    if w_a.shape != (L * kw, 1):
        raise ValueError(f"depth_attention needs w_a [L*J*dk x 1] = "
                         f"{(L * kw, 1)}, got {w_a.shape}")
    if m % J:
        raise ValueError(f"depth_attention: {m} value columns do not split "
                         f"into {J} heads")
    _check_affine("depth_attention", w_v[0], (w_out,), (b_out,),
                  "w_v [h x m], w_out [m x c] and b_out [c]")
    _check_rate(rate, rng)
    _check_rate(attn_rate, rng)
    keep_s = [_keep_mask(s.shape, rate, rng) for s in states]

    def dropped():      # the states after dropout, as Tensors off the tape
        return [s if k is None else Tensor(s.data * k, s.requires_grad)
                for s, k in zip(states, keep_s)]

    xs = dropped()
    relu = [np.maximum(_affine(x, w, b), 0.0)
            for x, w, b in zip(xs, w_k, b_k)]
    keep_k = [_keep_mask(r.shape, rate, rng) for r in relu]
    keys = np.concatenate([r if k is None else r * k
                           for r, k in zip(relu, keep_k)], axis=1)
    del relu
    # pair (l, j) owns the dk key columns from (l*J + j)*dk and as many
    # rows of w_a, which score them in column l*J + j
    blocks = np.repeat(np.eye(L * J), kw // J, axis=0)
    mw = blocks * w_a.data
    scores = (keys @ mw + b_a.data).reshape(n, L, J)
    keys = keys if _grad_enabled() else None    # only backward reads them
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    p = p / p.sum(axis=1, keepdims=True)        # softmax over layers
    keep_w = _keep_mask(p.shape, attn_rate, rng)
    weights = p if keep_w is None else p * keep_w
    values = np.concatenate([_affine(x, w, b)
                             for x, w, b in zip(xs, w_v, b_v)], axis=1)
    by_head = (n, L, J, m // J)
    mixed = (values.reshape(by_head) * weights[..., None]).reshape(n, L * m)
    w_cat = np.concatenate([w_out.data] * L)

    def bwd(g, pending):
        _acc(pending, b_out, g.sum(axis=0))
        gm = (g @ w_cat.T).reshape(by_head)
        for part in np.split(mixed.T @ g, L):
            _acc(pending, w_out, part)
        gv = np.split((gm * weights[..., None]).reshape(n, L * m), L, axis=1)
        gw = (gm * values.reshape(by_head)).sum(axis=-1)
        gw = gw if keep_w is None else gw * keep_w
        gs = p * (gw - (gw * p).sum(axis=1, keepdims=True))
        gs = gs.reshape(n, L * J)
        _acc(pending, b_a, gs.sum(axis=0))
        gk = gs @ mw.T
        _acc(pending, w_a, ((keys.T @ gs) * blocks).sum(axis=1, keepdims=True))
        ds = dropped()
        for l in reversed(range(L)):
            _affine_grads(pending, ds[l], w_v[l], b_v[l], gv[l])
        for l in reversed(range(L)):
            c = slice(l * kw, (l + 1) * kw)
            gl = gk[:, c] if keep_k[l] is None else gk[:, c] * keep_k[l]
            _affine_grads(pending, ds[l], w_k[l], b_k[l],
                          gl * (keys[:, c] > 0.0))
        for s, d, k in reversed(list(zip(states, ds, keep_s))):
            if d is not s and d in pending:
                _acc(pending, s, pending.pop(d) * k)

    inputs = (*states, *w_k, *b_k, w_a, b_a, *w_v, *b_v, w_out, b_out)
    return _record(Tensor(mixed @ w_cat + b_out.data), inputs, bwd), weights


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


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd(g, pending):
        _acc(pending, x, np.broadcast_to(g, x.data.shape).copy())

    return _record(out, (x,), bwd)


# --------------------------------------------------------------------- loss

def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -ln p[target], p the row softmax of logits
    (max-subtracted) clamped at PROB_CLAMP, as one node.

    Backward takes the clamp-aware gradient dp of the loss in p, times
    g, back through the softmax: p * (dp - the row sum of dp * p)."""
    _need_2d(logits, "cross_entropy")
    n, c = logits.shape
    if n == 0:
        raise ValueError("cross_entropy needs at least one row")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (n,):
        raise ValueError(f"targets shape {t.shape} does not match {n} rows")
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"target class out of range [0, {c}): {t.min()}..{t.max()}")
    e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    picked = p[np.arange(n), t]
    clamped = np.maximum(picked, PROB_CLAMP)
    out = Tensor(-np.log(clamped).mean())

    def bwd(g, pending):
        dp = np.zeros_like(p)
        live = picked > PROB_CLAMP  # clamp region is flat
        dp[np.arange(n), t] = np.where(live, -1.0 / clamped, 0.0) / n
        dp = dp * g
        _acc(pending, logits, p * (dp - (dp * p).sum(axis=1, keepdims=True)))

    return _record(out, (logits,), bwd)


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
    agreement: on a flat direction (one that moves every input of a
    softmax equally, which it cancels) the true derivative is zero and
    both sides measure only rounding jitter, so their ratio says nothing
    about gradient correctness.  A non-finite
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
