"""Classification heads over the encoder's layer states.

Three variants share the output layer shape and differ in what they
feed it:

* final: the last layer state, linearly mapped to class logits.
* avgl: the average of per-layer linear transforms of states 1..L.
* mhmla: per token, several attention heads score states 1..L, softmax
  over depth, and mix per-layer value projections with those weights;
  the concatenated heads feed the output layer.

The embedding state (index 0) never participates; depth attention runs
over layers 1..L only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ModelConfig
from .tensor import (
    Tensor, add, concat_cols, dropout, matmul, mul, relu, scale, slice_cols,
    softmax,
)

INIT_STD = 0.02


@dataclass
class AttentionRecord:
    """Depth-attention weights actually used in a forward pass:
    weights[n, j, l] is token n, head j, encoder layer l+1.  In eval
    mode every (n, j) slice is a distribution over layers; in train
    mode attention dropout may have zeroed entries (no renormalization).
    """
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 3:
            raise ValueError(f"weights must be [n, J, L], got {self.weights.shape}")

    @property
    def n_tokens(self) -> int:
        return self.weights.shape[0]


@dataclass
class FinalHeadParams:
    w_out: Tensor
    b_out: Tensor

    def named(self):
        yield "head.w_out", self.w_out
        yield "head.b_out", self.b_out


@dataclass
class AvglHeadParams:
    w_proj: list[Tensor]
    b_proj: list[Tensor]
    w_out: Tensor
    b_out: Tensor

    def named(self):
        for l, (w, b) in enumerate(zip(self.w_proj, self.b_proj)):
            yield f"head.proj.{l:02d}.w", w
            yield f"head.proj.{l:02d}.b", b
        yield "head.w_out", self.w_out
        yield "head.b_out", self.b_out


@dataclass
class MhmlaHeadParams:
    """Indexed [layer][head]; layer 0 here is encoder layer 1."""
    w_v: list[list[Tensor]]
    b_v: list[list[Tensor]]
    w_k: list[list[Tensor]]
    b_k: list[list[Tensor]]
    w_a: list[list[Tensor]]
    b_a: list[list[Tensor]]
    w_out: Tensor
    b_out: Tensor

    def named(self):
        for l in range(len(self.w_v)):
            for j in range(len(self.w_v[l])):
                base = f"head.att.{l:02d}.{j:02d}"
                yield f"{base}.w_v", self.w_v[l][j]
                yield f"{base}.b_v", self.b_v[l][j]
                yield f"{base}.w_k", self.w_k[l][j]
                yield f"{base}.b_k", self.b_k[l][j]
                yield f"{base}.w_a", self.w_a[l][j]
                yield f"{base}.b_a", self.b_a[l][j]
        yield "head.w_out", self.w_out
        yield "head.b_out", self.b_out


HeadParams = FinalHeadParams | AvglHeadParams | MhmlaHeadParams


def _weight(rng, std, *shape):
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def _zeros(*shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def init_head_params(config: ModelConfig, rng: np.random.Generator,
                     init_std: float = INIT_STD) -> HeadParams:
    h, c = config.hidden, config.n_classes
    if config.head_type == "final":
        return FinalHeadParams(w_out=_weight(rng, init_std, h, c), b_out=_zeros(c))
    if config.head_type == "avgl":
        return AvglHeadParams(
            w_proj=[_weight(rng, init_std, h, h) for _ in range(config.n_layers)],
            b_proj=[_zeros(h) for _ in range(config.n_layers)],
            w_out=_weight(rng, init_std, h, c), b_out=_zeros(c))
    width = h // config.layer_attn_heads
    dk = config.key_dim
    shape_of = {"w_v": (h, width), "b_v": (width,), "w_k": (h, dk),
                "b_k": (dk,), "w_a": (dk, 1), "b_a": (1,)}
    grids = {}
    for name, shape in shape_of.items():
        grids[name] = [
            [(_weight(rng, init_std, *shape) if name.startswith("w")
              else _zeros(*shape)) for _ in range(config.layer_attn_heads)]
            for _ in range(config.n_layers)
        ]
    return MhmlaHeadParams(**grids, w_out=_weight(rng, init_std, h, c),
                           b_out=_zeros(c))


def _check_states(states, config: ModelConfig) -> None:
    if len(states) != config.n_layers + 1:
        raise ValueError(
            f"expected {config.n_layers + 1} layer states, got {len(states)}")
    n = states[0].shape[0]
    for lvl, s in enumerate(states):
        if s.shape != (n, config.hidden):
            raise ValueError(
                f"state {lvl} has shape {s.shape}, expected ({n}, {config.hidden})")


def _maybe_drop(x: Tensor, rate: float, train_mode: bool, rng) -> Tensor:
    if train_mode and rate > 0.0:
        return dropout(x, rate, rng)
    return x


def final_layer_forward(states, params: FinalHeadParams, config: ModelConfig,
                        train_mode: bool = False, rng=None) -> Tensor:
    """softmax(h^L W + b) per token."""
    _check_states(states, config)
    h = _maybe_drop(states[-1], config.dropout, train_mode, rng)
    return softmax(add(matmul(h, params.w_out), params.b_out), axis=1)


def avgl_forward(states, params: AvglHeadParams, config: ModelConfig,
                 train_mode: bool = False, rng=None) -> Tensor:
    """softmax over the mean of per-layer transforms of states 1..L."""
    _check_states(states, config)
    if len(params.w_proj) != config.n_layers:
        raise ValueError("avgl params do not match n_layers")
    total = None
    for l in range(config.n_layers):
        h = _maybe_drop(states[l + 1], config.dropout, train_mode, rng)
        term = add(matmul(h, params.w_proj[l]), params.b_proj[l])
        total = term if total is None else add(total, term)
    c = scale(total, 1.0 / config.n_layers)
    return softmax(add(matmul(c, params.w_out), params.b_out), axis=1)


def _weight_tensors(states, params: MhmlaHeadParams, config: ModelConfig,
                    train_mode: bool, rng):
    """The dropped-out states 1..L and, per head, an [n x L] tensor of
    depth-attention weights."""
    _check_states(states, config)
    states_d = [_maybe_drop(s, config.dropout, train_mode, rng)
                for s in states[1:]]
    out = []
    for j in range(config.layer_attn_heads):
        cols = []
        for l in range(config.n_layers):
            k = relu(add(matmul(states_d[l], params.w_k[l][j]),
                         params.b_k[l][j]))
            k = _maybe_drop(k, config.dropout, train_mode, rng)
            cols.append(add(matmul(k, params.w_a[l][j]), params.b_a[l][j]))
        weights = softmax(concat_cols(cols), axis=1)
        weights = _maybe_drop(weights, config.attn_dropout, train_mode, rng)
        out.append(weights)
    return states_d, out


def layer_attention_weights(states, params: MhmlaHeadParams,
                            config: ModelConfig, train_mode: bool = False,
                            rng=None) -> AttentionRecord:
    """Just the depth-attention distributions, as a record."""
    _, tensors = _weight_tensors(states, params, config, train_mode, rng)
    return AttentionRecord(np.stack([t.data for t in tensors], axis=1))


def mhmla_forward(states, params: MhmlaHeadParams, config: ModelConfig,
                  train_mode: bool = False,
                  rng=None) -> tuple[Tensor, AttentionRecord]:
    """Class probabilities plus the attention weights that produced them.

    Per head j: values v^l = h^l W_v + b_v for each layer, scores from a
    relu key projection, softmax over layers, weighted value sum; heads
    concatenate and feed the output layer.
    """
    L, J = config.n_layers, config.layer_attn_heads
    states_d, weights = _weight_tensors(states, params, config, train_mode,
                                        rng)
    heads = []
    for j in range(J):
        mixed = None
        for l in range(L):
            v = add(matmul(states_d[l], params.w_v[l][j]), params.b_v[l][j])
            term = mul(v, slice_cols(weights[j], l, l + 1))
            mixed = term if mixed is None else add(mixed, term)
        heads.append(mixed)
    c = concat_cols(heads)
    probs = softmax(add(matmul(c, params.w_out), params.b_out), axis=1)
    record = AttentionRecord(np.stack([t.data for t in weights], axis=1))
    return probs, record
