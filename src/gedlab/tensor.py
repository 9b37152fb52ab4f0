"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every differentiable operation appends its result to a
thread-local tape, so creation order is a valid topological order and
backward() can walk the tape once, in reverse.

No op broadcasts: add takes two tensors of one shape, and the fused
ops take their bias and gain rows at exactly the output width.

The fused ops record one node each and keep only what their backwards
read; encoder_block and depth_attention rebuild their projections in
backward from the inputs and the weights' current values, the same
bits as the forward's.  Each backward hands out its gradients in the
order that separate nodes for the same arithmetic would, so a tensor
that several ops read sums its gradients in that order, bit for bit.
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
NORM_EPS = 1e-12        # added to the row variance in layer norm
FD_ZERO_TOL = 1e-10     # finite_diff_check: both estimates below = agree


class Tensor:
    """A float64 array plus the bookkeeping backward() needs.

    backward() deposits gradients on leaves only (parameters, inputs:
    tensors no op on the tape produced); an op's output keeps grad
    None.  Repeated backward passes accumulate into a leaf's grad
    (callers reset via zero_grad).

    A leaf may have a gradient home, an array of its shape that the
    optimizer owns (its view of training.AdamState's buffer).  Its
    first contribution is written into the home, later ones are added
    there in arrival order (another shape is a ValueError), and grad is
    the home itself; zero_grad only drops the reference.

    A backward closure holds its op's inputs, so a held op output keeps
    its whole graph alive, reset_graph() or not.  A parameter's data
    must not change between a forward and its backward, which rebuilds
    projections from it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_grad_home")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable | None = None
        self._grad_home: np.ndarray | None = None

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
    if not hasattr(_LOCAL, "graph"):
        _LOCAL.graph = Graph()
    return _LOCAL.graph


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
    if not t.requires_grad:
        return
    home = t._grad_home
    if home is not None and (t.grad is None or t.grad is home):
        # a write into the home would broadcast a wrong shape
        if g.shape != home.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"its leaf's {home.shape}")
        if t.grad is None:                      # first contribution
            home[...] = g
            t.grad = home
        else:
            home += g
    else:
        cur = pending.get(t)
        pending[t] = g if cur is None else cur + g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad (or its home, see Tensor)
    for every reachable requires_grad leaf; an interior node's gradient
    goes to its backward and is dropped.  A loss that is not a scalar,
    or an op output off this thread's tape (after reset_graph() or from
    another thread), is a ValueError."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = active_graph().nodes
    if loss._backward is not None and not any(
            n is loss for n in reversed(nodes)):
        raise ValueError("backward: the loss is an op output that is not "
                         "on this thread's tape (reset_graph() ran after "
                         "its forward, or another thread recorded it)")
    pending: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for node in reversed(nodes):
        g = pending.pop(node, None)
        if g is not None:
            node._backward(g, pending)
    # whatever is left never went through an op: leaves (parameters,
    # inputs) without a home, or whose grad a caller set
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

    def bwd(g, pending):
        _acc(pending, a, g)
        _acc(pending, b, g)

    return _record(Tensor(a.data + b.data), (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g, pending):
        _acc(pending, x, g * c)

    return _record(Tensor(x.data * c), (x,), bwd)


def _check_affine(op: str, x, ws, bs,
                  layout: str = "x [n x k], w [k x m] and b [m]") -> None:
    """x [n x k], every w in ws [k x m] and every b in bs [m], or a
    ValueError naming op's layout and all their shapes."""
    w_shape = ws[0].shape
    if not (len(x.shape) == 2 and len(w_shape) == 2
            and w_shape[0] == x.shape[1]
            and all(w.shape == w_shape for w in ws)
            and all(b.shape == (w_shape[1],) for b in bs)):
        shapes = [str(t.shape) for t in (x, *ws, *bs)]
        raise ValueError(f"{op} needs {layout}, got "
                         f"{', '.join(shapes[:-1])} and {shapes[-1]}")


def _affine(x: np.ndarray, w: Tensor, b: Tensor | None) -> np.ndarray:
    """x @ w + b as one new array; b None adds nothing."""
    y = x @ w.data
    if b is not None:
        y += b.data
    return y


def _affine_grads(pending: dict, x: np.ndarray, w: Tensor, b: Tensor | None,
                  g: np.ndarray) -> np.ndarray:
    """Hand b, then w their gradients of x @ w + b; return x's."""
    if b is not None:
        _acc(pending, b, g.sum(axis=0))
    _acc(pending, w, x.T @ g)
    return g @ w.data.T


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: the product is never kept apart from the
    sum.  With zero b it is the plain product."""
    _check_affine("linear", x, (w,), (b,))

    def bwd(g, pending):
        _acc(pending, x, _affine_grads(pending, x.data, w, b, g))

    return _record(Tensor(_affine(x.data, w, b)), (x, w, b), bwd)


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b) as one node: only the output is kept.  Backward
    masks g where the output is not above 0 (the pre-activation's sign;
    subgradient 0 at exactly 0), then runs linear's backward."""
    _check_affine("linear_relu", x, (w,), (b,))
    y = _affine(x.data, w, b)
    np.maximum(y, 0.0, out=y)

    def bwd(g, pending):
        _acc(pending, x, _affine_grads(pending, x.data, w, b, g * (y > 0.0)))

    return _record(Tensor(y), (x, w, b), bwd)


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

    def bwd(g, pending):
        _acc(pending, x, g * keep)

    return _record(Tensor(x.data * keep), (x,), bwd)


def _self_attention(h: Tensor, w_q, b_q, w_k, w_v, b_v, key_real, n_heads,
                    rate, rng):
    """encoder_block's attention half: multi-head scaled dot-product
    self-attention within each sentence of a padded batch.

    h is [B*T x k], row b * T + n holding token n of sentence b, and
    key_real the [B, T] mask of real tokens.  Q = h @ w_q + b_q, K = h
    @ w_k (a key bias would cancel in the softmax), V = h @ w_v + b_v.
    Per sentence and head: softmax(Q Kt / sqrt(m / n_heads)), PAD keys
    at MASK_LOGIT (exactly zero weight), then a [B, n_heads, T, T]
    dropout mask.

    Keeps the weights and mask; returns (mix, bwd).  mix() rebuilds V
    and returns [P V as [B*T x m], V]; bwd([g, V], pending) takes P V's
    gradient g, empties the list so both die once read, and hands h its
    gradients through v, k and q, rebuilding q and k.
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

    def heads(x):       # [B*T x m] -> its [B, heads, T, dh] view
        return x.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)

    def proj(w, bias):  # h @ w + bias, per head
        return heads(_affine(h.data, w, bias))

    def product(x, y, out=None):    # x @ y written into out's head view
        out = np.empty((b * t, width)) if out is None else out
        np.matmul(x, y, out=heads(out))
        return out

    p = np.where(real[:, None, None, :],
                 (proj(w_q, b_q) @ proj(w_k, None).transpose(0, 1, 3, 2))
                 * inv_sqrt, MASK_LOGIT)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = _keep_mask(p.shape, rate, rng)

    def weights():
        return p if keep is None else p * keep

    def mix():
        v = _affine(h.data, w_v, b_v)
        return [product(weights(), heads(v)), v]

    def bwd(held, pending):
        g, v = held
        held.clear()
        go = heads(g)
        gh = product(weights().transpose(0, 1, 3, 2), go)
        _acc(pending, h, _affine_grads(pending, h.data, w_v, b_v, gh))
        ds = go @ heads(v).transpose(0, 1, 3, 2)    # d(weights)
        del g, go, v
        if keep is not None:
            ds *= keep
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p                                 # d(scores), in place
        ds *= inv_sqrt
        _acc(pending, h, _affine_grads(pending, h.data, w_k, None, product(
            ds.transpose(0, 1, 3, 2), proj(w_q, b_q), gh)))
        _acc(pending, h, _affine_grads(pending, h.data, w_q, b_q,
                                       product(ds, proj(w_k, None), gh)))

    return mix, bwd


def _residual_norm(h, x, w, b, gain, bias, rate, rng):
    """encoder_block's sublayer exit, layer_norm(h + dropout(x @ w +
    b)) over arrays: each row s of the sum becomes y = (s - mean) /
    sqrt(pop_var + NORM_EPS), then y * gain + bias.  Keeps y, the rows'
    inverse deviations and the mask; returns (out, bwd).  out() builds
    the output; bwd(g, pending) hands bias, then gain their gradients
    and returns those of h and of x @ w + b."""
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
    y += h                          # s = h + dropout(x @ w + b)
    # sum / width: mean's arithmetic, without its wrapper
    y -= y.sum(axis=1, keepdims=True) / width
    inv = 1.0 / np.sqrt((y * y).sum(axis=1, keepdims=True) / width + NORM_EPS)
    y *= inv                        # s standardized: y

    def out():
        o = y * gain.data
        o += bias.data
        return o

    def bwd(g, pending):
        _acc(pending, bias, g.sum(axis=0))
        _acc(pending, gain, (g * y).sum(axis=0))
        gy = g * gain.data
        gm = gy.sum(axis=1, keepdims=True) / width
        gyy = (gy * y).sum(axis=1, keepdims=True) / width
        gs = inv * (gy - gm - y * gyy)
        return gs, gs if keep is None else gs * keep

    return out, bwd


def encoder_block(h: Tensor, w_q, b_q, w_k, w_v, b_v, w_o, b_o, ln1_gain,
                  ln1_bias, w_ff1, b_ff1, w_ff2, b_ff2, ln2_gain, ln2_bias,
                  key_real, n_heads, rate=0.0, attn_rate=0.0,
                  rng=None) -> Tensor:
    """A post-norm encoder block as one node, built from its halves:
    h1 = layer_norm(h + dropout(attention(h) @ w_o + b_o)), then
    layer_norm(h1 + dropout(relu(h1 @ w_ff1 + b_ff1) @ w_ff2 + b_ff2)),
    attention's weights dropped at attn_rate, masks drawn in that order.
    Keeps the attention weights, both norms' y, the relu output and the
    masks.  Backward rebuilds h1 as the forward did, and V once, for P V
    (w_o's gradient reads it) and the weight gradient."""
    mix, attend = _self_attention(h, w_q, b_q, w_k, w_v, b_v, key_real,
                                  n_heads, attn_rate, rng)
    mixed, grad = mix()[0], _grad_enabled()
    if not grad:    # no backward: free as separate ops would
        mix = attend = None
    h1_of, norm1 = _residual_norm(h.data, mixed, w_o, b_o, ln1_gain,
                                  ln1_bias, rate, rng)
    h1 = h1_of()
    if not grad:
        norm1 = h1_of = None
    _check_affine("encoder_block", h1, (w_ff1,), (b_ff1,))
    a = _affine(h1, w_ff1, b_ff1)
    np.maximum(a, 0.0, out=a)
    out, norm2 = _residual_norm(h1, a, w_ff2, b_ff2, ln2_gain, ln2_bias,
                                rate, rng)

    def bwd(g, pending):
        gh1, gz = norm2(g, pending)
        ga = _affine_grads(pending, a, w_ff2, b_ff2, gz)
        del gz
        ga *= a > 0.0
        gh1 += _affine_grads(pending, h1_of(), w_ff1, b_ff1, ga)
        del ga
        gh, gz = norm1(gh1, pending)
        _acc(pending, h, gh)
        del gh1, gh
        held = mix()
        held[0] = _affine_grads(pending, held[0], w_o, b_o, gz)
        del gz
        attend(held, pending)

    inputs = (h, w_q, b_q, w_k, w_v, b_v, w_o, b_o, ln1_gain, ln1_bias,
              w_ff1, b_ff1, w_ff2, b_ff2, ln2_gain, ln2_bias)
    return _record(Tensor(out()), inputs, bwd)


def depth_attention(states: Sequence[Tensor], w_k, b_k, w_a: Tensor,
                    b_a: Tensor, w_v, b_v, w_out: Tensor, b_out: Tensor,
                    rate: float = 0.0, attn_rate: float = 0.0,
                    rng: np.random.Generator | None = None):
    """Multi-head multi-layer attention over L states [n x h] up to the
    class logits, as one node.  Layer l's keys relu(states[l] @ w_k[l]
    + b_k[l]) hold J = len(b_a) / L heads' dk columns side by side; one
    product with w_a [L*J*dk x 1] laid out block-diagonally, plus b_a,
    scores each (layer, head); a softmax over layers weighs each head's
    columns of the values states[l] @ w_v[l] + b_v[l]; a product with
    w_out stacked L times sums them over layers: logits.

    Dropout at rate draws a mask for every state, then every layer's
    keys; attn_rate one for the weights.  Returns (logits, weights [n,
    L, J] as used).  Keeps only the weights and masks: backward rebuilds
    each layer's values and mix a layer at a time, then all layers'
    keys, and hands w_out its L slices in layer order and each state
    its value plus key gradient, times its mask.  A dropped state is a
    plain array, built where it is read.
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

    def dropped(l):     # layer l's state after dropout, [n x h]
        x, k = states[l].data, keep_s[l]
        return x if k is None else x * k

    def keys_of():      # every layer's keys after dropout, [n x L*kw]
        keys = np.empty((n, L * kw))
        for l, k in enumerate(keep_k):
            c = keys[:, l * kw:(l + 1) * kw]
            np.maximum(_affine(dropped(l), w_k[l], b_k[l]), 0.0, out=c)
            if k is not None:
                c *= k
        return keys

    def values_of(x, l):    # layer l's values, [n, J, m / J]
        return _affine(x, w_v[l], b_v[l]).reshape(n, J, m // J)

    keep_k = [_keep_mask((n, kw), rate, rng) for _ in range(L)]
    # pair (l, j) owns the dk key columns from (l*J + j)*dk and as many
    # rows of w_a, which score them in column l*J + j
    blocks = np.repeat(np.eye(L * J), kw // J, axis=0)
    mw = blocks * w_a.data
    scores = (keys_of() @ mw + b_a.data).reshape(n, L, J)
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    p = p / p.sum(axis=1, keepdims=True)        # softmax over layers
    keep_w = _keep_mask(p.shape, attn_rate, rng)
    weights = p if keep_w is None else p * keep_w

    def mixed(v, l):    # v [n, J, m / J] weighted by layer l's heads: [n x m]
        return (v * weights[:, l, :, None]).reshape(n, m)

    logits = (np.concatenate([mixed(values_of(dropped(l), l), l)
                              for l in range(L)], axis=1)
              @ np.concatenate([w_out.data] * L) + b_out.data)

    def bwd(g, pending):
        _acc(pending, b_out, g.sum(axis=0))
        go = (g @ w_out.data.T).reshape(n, J, m // J)
        gw = np.empty((n, L, J))
        for l in range(L):
            v = values_of(dropped(l), l)
            _acc(pending, w_out, mixed(v, l).T @ g)
            gw[:, l] = (go * v).sum(axis=-1)
        del v
        gw = gw if keep_w is None else gw * keep_w
        gs = (p * (gw - (gw * p).sum(axis=1, keepdims=True))).reshape(n, L * J)
        keys = keys_of()
        _acc(pending, b_a, gs.sum(axis=0))
        _acc(pending, w_a, ((keys.T @ gs) * blocks).sum(axis=1, keepdims=True))
        live = keys > 0.0
        del keys
        for l in reversed(range(L)):
            c, x = slice(l * kw, (l + 1) * kw), dropped(l)
            gv = mixed(go, l)
            _acc(pending, b_v[l], gv.sum(axis=0))
            _acc(pending, w_v[l], x.T @ gv)
            dx = gv @ w_v[l].data.T
            del gv
            gl = gs @ mw[c].T
            if keep_k[l] is not None:
                gl *= keep_k[l]
            gl *= live[:, c]
            _acc(pending, b_k[l], gl.sum(axis=0))
            _acc(pending, w_k[l], x.T @ gl)
            del x
            dx += gl @ w_k[l].data.T
            del gl      # before the next layer's dropped state is built
            if keep_s[l] is not None:
                dx *= keep_s[l]
            _acc(pending, states[l], dx)

    inputs = (*states, *w_k, *b_k, w_a, b_a, *w_v, *b_v, w_out, b_out)
    return _record(Tensor(logits), inputs, bwd), weights


# ------------------------------------------------------------ shape plumbing

def _rows(x: Tensor, indices, op: str) -> np.ndarray:
    """indices as 1-D int64 rows of the 2-D x, or a ValueError."""
    _need_2d(x, op)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{op} needs a 1-D index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(
            f"row index out of range: valid [0, {x.shape[0]}), got "
            f"[{idx.min()}, {idx.max()}]")
    return idx


def _scatter_rows(pending: dict, x: Tensor, idx: np.ndarray, g) -> None:
    """Hand x the gradient of x[idx]: g's rows added at idx into zeros,
    or into x's zeroed gradient home as x's first contribution."""
    if not x.requires_grad:
        return
    home = x._grad_home if x.grad is None else None
    if home is None:
        dx = np.zeros_like(x.data)
    else:
        home[...] = 0.0
        dx = x.grad = home
    t = int(idx.max()) + 1 if idx.size else 0
    if idx.size < 2 or (idx[1:] > idx[:-1]).all():
        dx[idx] = g     # each row once, such as word rows
    elif idx.size % t == 0 and (idx.reshape(-1, t) == np.arange(t)).all():
        # tile(arange(t), B), such as positions: the sum of g's [t x H]
        # blocks, in np.add.at's order from 0.0, at a fraction of its time
        g.reshape(-1, t, g.shape[1]).sum(axis=0, out=dx[:t])
    else:
        np.add.at(dx, idx, g)
    if home is None:
        _acc(pending, x, dx)


def embed(token: Tensor, position: Tensor, ids, positions) -> Tensor:
    """token[ids] + position[positions] as one node that keeps only the
    index lists.  Backward scatter-adds g into the position table, then
    into the token table."""
    ids, positions = (_rows(token, ids, "embed"),
                      _rows(position, positions, "embed"))
    if ids.shape != positions.shape or token.shape[1] != position.shape[1]:
        raise ValueError(f"embed needs as many ids as positions and two "
                         f"tables of one width, got {ids.shape}, "
                         f"{positions.shape}, {token.shape} and "
                         f"{position.shape}")

    def bwd(g, pending):
        _scatter_rows(pending, position, positions, g)
        _scatter_rows(pending, token, ids, g)

    return _record(Tensor(token.data[ids] + position.data[positions]),
                   (token, position), bwd)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows x[indices], such as a batch's word rows.  Backward
    scatter-adds, so repeated rows accumulate."""
    idx = _rows(x, indices, "gather_rows")

    def bwd(g, pending):
        _scatter_rows(pending, x, idx, g)

    return _record(Tensor(x.data[idx]), (x,), bwd)


def sum_all(x: Tensor) -> Tensor:

    def bwd(g, pending):
        _acc(pending, x, np.broadcast_to(g, x.data.shape).copy())

    return _record(Tensor(x.data.sum()), (x,), bwd)


# --------------------------------------------------------------------- loss

def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -ln p[target], p the row softmax of logits
    (max-subtracted) clamped at PROB_CLAMP, as one node.  Backward takes
    the clamp-aware gradient dp in p, times g, through the softmax."""
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

    def bwd(g, pending):
        dp = np.zeros_like(p)
        live = picked > PROB_CLAMP  # clamp region is flat
        dp[np.arange(n), t] = np.where(live, -1.0 / clamped, 0.0) / n
        dp = dp * g
        _acc(pending, logits, p * (dp - (dp * p).sum(axis=1, keepdims=True)))

    return _record(Tensor(-np.log(clamped).mean()), (logits,), bwd)


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

    f is nullary, returns a scalar Tensor and must be deterministic
    (two calls up front catch live dropout or an unseeded rng).  Every
    parameter component is perturbed by +-eps: keep it at desk scale.
    Relative error: |analytic - numeric| / max(|analytic|, |numeric|,
    1e-8); two estimates below FD_ZERO_TOL agree (a direction a softmax
    cancels measures only rounding); a non-finite one is inf, a
    failure.  eps and tol must be finite and > 0.
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
    analytic = {name: np.zeros_like(p.data) if p.grad is None
                else p.grad.copy() for name, p in params}
    reset_graph()
    worst, worst_name = 0.0, ""
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
                if rel > worst:
                    worst = rel
                    worst_name = f"{name}[{i}]"
    worst, n_checked = float(worst), sum(p.data.size for _, p in params)
    return GradCheckReport(worst, worst_name, n_checked, worst < tol)
