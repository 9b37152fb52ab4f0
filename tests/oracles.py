"""Oracles shared by the corpus, heads and acceptance tests.

The brute-force alignment oracle enumerates every minimum-cost edit
script, then picks the one the backtrace convention prefers: reading
ops from the END of the sentence, match beats substitution beats
deletion beats insertion.  distance_matrix_reference and
dp_align_label_reference are the scalar one-pair Levenshtein matrix and
labeler that the chunked aligner replaced.  pair_part reads one
(layer, head) pair's own block out of the MHMLA head's joined
parameters, forced_depth_params pins the depth weights to constants
through those parameters, and mhmla_reference computes the MHMLA head
one pair at a time in plain numpy.  linear_reference and
layer_norm_reference are the unfused numpy forms of an affine map and
an affine layer norm; linear_relu_reference, residual_norm_reference and
self_attention_reference build the fused encoder ops from them (and
numpy attention), handing out gradients in the order separate tape
nodes would.  adam_reference is Adam as one loop over the
parameter tensors, with its moments in per-name dicts.
"""
import copy
import functools

import numpy as np

from gedlab.corpus import LABEL_ERR, LABEL_OK
from gedlab.tensor import MASK_LOGIT, NORM_EPS

_RANK = {"match": 0, "sub": 1, "del": 2, "ins": 3}


def all_minimal_scripts(src, dst):
    @functools.lru_cache(maxsize=None)
    def cost(i, j):
        if i == len(src):
            return len(dst) - j
        if j == len(dst):
            return len(src) - i
        step = cost(i + 1, j + 1) + (0 if src[i] == dst[j] else 1)
        return min(step, cost(i + 1, j) + 1, cost(i, j + 1) + 1)

    def walk(i, j):
        if i == len(src) and j == len(dst):
            yield ()
            return
        here = cost(i, j)
        if i < len(src) and j < len(dst):
            step = 0 if src[i] == dst[j] else 1
            if cost(i + 1, j + 1) + step == here:
                op = "match" if step == 0 else "sub"
                for rest in walk(i + 1, j + 1):
                    yield (op,) + rest
        if i < len(src) and cost(i + 1, j) + 1 == here:
            for rest in walk(i + 1, j):
                yield ("del",) + rest
        if j < len(dst) and cost(i, j + 1) + 1 == here:
            for rest in walk(i, j + 1):
                yield ("ins",) + rest

    return list(walk(0, 0))


def oracle_labels(src, dst):
    scripts = all_minimal_scripts(tuple(src), tuple(dst))
    chosen = min(scripts,
                 key=lambda s: tuple(_RANK[op] for op in reversed(s)))
    labels = [LABEL_OK] * len(src)
    i = 0
    for op in chosen:
        if op == "match":
            i += 1
        elif op in ("sub", "del"):
            labels[i] = LABEL_ERR
            i += 1
        else:  # the token after the insertion point; last token at the end
            labels[min(i, len(src) - 1)] = LABEL_ERR
    return labels


def random_pair(rng, alphabet="abcd", max_len=6):
    def side():
        n = int(rng.integers(1, max_len + 1))
        return [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)]
    return side(), side()


def distance_matrix_reference(src, dst):
    """The scalar Wagner-Fischer loop the chunked aligner replaced."""
    m, n = len(src), len(dst)
    d = np.zeros((m + 1, n + 1), dtype=np.int64)
    d[:, 0] = np.arange(m + 1)
    d[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            same = src[i - 1] == dst[j - 1]
            d[i, j] = min(
                d[i - 1, j - 1] + (0 if same else 1),
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
            )
    return d


def dp_align_label_reference(source, corrected):
    """The one-pair labeler the chunked aligner replaced, backtrace and
    tie rules as they were, over distance_matrix_reference."""
    src, dst = list(source), list(corrected)
    if not src or not dst:
        raise ValueError("both sides must be non-empty")
    d = distance_matrix_reference(src, dst)
    labels = [LABEL_OK] * len(src)
    i, j = len(src), len(dst)
    while i > 0 or j > 0:
        here = d[i, j]
        if (i > 0 and j > 0 and src[i - 1] == dst[j - 1]
                and d[i - 1, j - 1] == here):
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and d[i - 1, j - 1] + 1 == here:
            labels[i - 1] = LABEL_ERR
            i, j = i - 1, j - 1
        elif i > 0 and d[i - 1, j] + 1 == here:
            labels[i - 1] = LABEL_ERR
            i = i - 1
        else:
            # insertion: dst[j-1] is missing from source
            labels[min(i, len(src) - 1)] = LABEL_ERR
            j = j - 1
    return labels


def pair_part(params, name, l, j):
    """Pair (l, j)'s own block of MHMLA head parameter name, in the shape
    it would have alone: w_v [h x H/J], b_v [H/J], w_k [h x dk], b_k
    [dk], w_a [dk x 1], b_a [1].  A view, so writing to it writes the
    parameter."""
    L = len(params.w_v)
    J = params.b_a.shape[0] // L
    if name in ("w_a", "b_a"):
        joined = getattr(params, name).data
        rows = joined.shape[0] // (L * J)
        return joined[(l * J + j) * rows:(l * J + j + 1) * rows]
    joined = getattr(params, name)[l].data
    cols = joined.shape[-1] // J
    return joined[..., j * cols:(j + 1) * cols]


def forced_depth_params(params, keep_layer=None):
    """A copy of MHMLA head params whose depth weights are constant.

    Every score weight w_a is zero, so each layer's score is its bias
    b_a.  With keep_layer, b_a is 0 on that layer and -1e4 elsewhere:
    exp(-1e4) underflows to 0, so each head puts exactly all its weight
    there.  Without, b_a is 0 everywhere and the weights are exactly 1/L.
    """
    forced = copy.deepcopy(params)
    L = len(forced.w_v)
    for l in range(L):
        for j in range(forced.b_a.shape[0] // L):
            pair_part(forced, "w_a", l, j)[...] = 0.0
            pair_part(forced, "b_a", l, j)[...] = (
                0.0 if keep_layer in (None, l) else -1e4)
    return forced


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def mhmla_reference(states, params, config):
    """Eval-mode MHMLA head, the paper's equations one (layer, head) pair
    at a time: per head j, a relu key k = relu(h^l W_k + b_k) and a score
    k w_a + b_a for each layer l, a softmax of the scores over layers,
    and the weighted sum of the values h^l W_v + b_v.  The heads, side
    by side, feed the output layer.

    Returns (probs [n x classes], weights [n, J, L]).
    """
    hs = [s.data for s in states[1:]]
    L, J = config.n_layers, config.layer_attn_heads
    weights, heads = [], []
    part = functools.partial(pair_part, params)
    for j in range(J):
        scores = np.stack([
            np.maximum(hs[l] @ part("w_k", l, j) + part("b_k", l, j), 0.0)
            @ part("w_a", l, j)[:, 0] + part("b_a", l, j)[0]
            for l in range(L)], axis=1)
        w = _softmax(scores, axis=1)
        weights.append(w)
        heads.append(sum(w[:, l:l + 1] * (hs[l] @ part("w_v", l, j)
                                          + part("b_v", l, j))
                         for l in range(L)))
    logits = (np.concatenate(heads, axis=1) @ params.w_out.data
              + params.b_out.data)
    return _softmax(logits, axis=1), np.stack(weights, axis=1)


def linear_reference(x, w, b, g):
    """x @ w + b, then the product's gradients for an upstream gradient
    g: (out, dx, dw, db)."""
    return x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)


def layer_norm_reference(x, gain, bias, g):
    """Each row standardized, times gain, plus bias, then its gradients
    for an upstream gradient g: (out, dx, dgain, dbias).  dx is the
    row-norm backward applied to g * gain."""
    xc = x - x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + NORM_EPS)
    y = xc * inv
    gy = g * gain
    dx = inv * (gy - gy.mean(axis=1, keepdims=True)
                - y * (gy * y).mean(axis=1, keepdims=True))
    return y * gain + bias, dx, (g * y).sum(axis=0), g.sum(axis=0)


def linear_relu_reference(x, w, b, g):
    """relu(x @ w + b), then its gradients for an upstream g:
    (out, dx, dw, db).  The mask is the pre-activation's sign, 0 at 0."""
    pre = linear_reference(x, w, b, g)[0]
    _, dx, dw, db = linear_reference(x, w, b, g * (pre > 0.0))
    return np.maximum(pre, 0.0), dx, dw, db


def residual_norm_reference(h, x, w, b, gain, bias, keep, g):
    """layer_norm(h + (x @ w + b) * keep), keep None for no dropout,
    then its gradients for an upstream g: (out, dh, dx, dw, db, dgain,
    dbias).  dh is the layer norm's input gradient, which the residual
    add passes on unchanged."""
    a = linear_reference(x, w, b, g)[0]
    s = h + (a if keep is None else a * keep)
    out, ds, dgain, dbias = layer_norm_reference(s, gain, bias, g)
    _, dx, dw, db = linear_reference(
        x, w, b, ds if keep is None else ds * keep)
    return out, ds, dx, dw, db, dgain, dbias


def self_attention_reference(h, w_q, b_q, w_k, w_v, b_v, key_real,
                             n_heads, keep, g, dh_held=0.0):
    """Multi-head self-attention within each sentence of a padded
    batch, from separate projections (keys without a bias) and numpy
    attention, then its gradients for an upstream g: (out, dh, dw_q,
    db_q, dw_k, dw_v, db_v).  keep is the [B, heads, T, T] dropout
    multiplier on the weights, or None.  dh adds to dh_held, the
    gradient h already holds from nodes later on the tape, the value,
    key and query paths in that order, the reverse of their forward."""
    bsz, t = key_real.shape
    width = w_q.shape[1]
    per_head = width // n_heads
    inv_sqrt = 1.0 / np.sqrt(per_head)

    def heads(x):
        return np.ascontiguousarray(
            x.reshape(bsz, t, n_heads, per_head).transpose(0, 2, 1, 3))

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(bsz * t, width)

    qh, kh, vh = heads(h @ w_q + b_q), heads(h @ w_k), heads(h @ w_v + b_v)
    scores = np.where(key_real[:, None, None, :],
                      (qh @ kh.transpose(0, 1, 3, 2)) * inv_sqrt,
                      MASK_LOGIT)
    p = _softmax(scores, axis=-1)
    pd = p if keep is None else p * keep
    out = merge(pd @ vh)
    go = heads(g)
    dv = merge(pd.transpose(0, 1, 3, 2) @ go)
    dp = go @ vh.transpose(0, 1, 3, 2)
    if keep is not None:
        dp = dp * keep
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * inv_sqrt
    dq, dk = merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh)
    _, dh_v, dw_v, db_v = linear_reference(h, w_v, b_v, dv)
    _, dh_k, dw_k, _ = linear_reference(h, w_k, np.zeros(width), dk)
    _, dh_q, dw_q, db_q = linear_reference(h, w_q, b_q, dq)
    return out, dh_held + dh_v + dh_k + dh_q, dw_q, db_q, dw_k, dw_v, db_v


def adam_reference(named_params, state, config):
    """One bias-corrected Adam update, one parameter tensor at a time,
    with the moments in per-name dicts on state.m and state.v (set up on
    the first call, over whatever the state held).  A call
    signature-compatible with gedlab.training.adam_step, so train() can
    run on it; it writes each p.data in place, so a parameter stays a
    view of its model's buffer."""
    if not isinstance(state.m, dict):
        state.m, state.v = {}, {}
    state.t += 1
    t, b1, b2 = state.t, config.beta1, config.beta2
    for name, p in named_params:
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match {name} {p.data.shape}")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name} at step {t}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data -= config.learning_rate * m_hat / (np.sqrt(v_hat)
                                                  + config.adam_eps)
        if not np.isfinite(p.data).all():
            raise FloatingPointError(f"non-finite value in {name} at step {t}")
