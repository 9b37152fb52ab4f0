"""Oracles shared by the corpus, heads and acceptance tests.

The brute-force alignment oracle enumerates every minimum-cost edit
script, then picks the one the backtrace convention prefers: reading
ops from the END of the sentence, match beats substitution beats
deletion beats insertion.  pair_part reads one (layer, head) pair's
own block out of the MHMLA head's joined parameters,
forced_depth_params pins the depth weights to constants through those
parameters, and mhmla_reference computes the MHMLA head one pair at a
time in plain numpy.  adam_reference is Adam as one loop over the
parameter tensors, with its moments in per-name dicts.  fresh is the
parameter allocator of direct init_encoder_params and init_head_params
calls.
"""
import copy
import functools

import numpy as np

from gedlab.corpus import LABEL_ERR, LABEL_OK
from gedlab.tensor import NORM_EPS, Tensor

_RANK = {"match": 0, "sub": 1, "del": 2, "ins": 3}


def fresh(*shape):
    """A new zeroed parameter tensor per call, not a view of any model's
    buffer."""
    return Tensor(np.zeros(shape), requires_grad=True)


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
