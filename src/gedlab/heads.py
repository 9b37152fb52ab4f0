"""Classification heads over the encoder's L block outputs.

Three variants share the output layer shape and differ in what they
feed it:

* final: the last layer state, linearly mapped to class logits.
* avgl: the average of per-layer linear transforms of the L states.
* mhmla: per token, several attention heads score the L states, softmax
  over depth, and mix per-layer value projections with those weights;
  the heads side by side feed the output layer.  One key and one value
  map per layer serve all J heads, and one score vector every (layer,
  head) pair.  The whole head is one tensor.depth_attention node,
  which takes the parameters in the shapes they are stored in.

The other heads' affine maps x W + b are one tensor.linear node each.
Every head returns class logits; tensor.cross_entropy takes their
softmax.
The embedding is not a state: states[l] is block l+1's output.  A head
given an rng is a training forward, with dropout (dropout_rates).

head_shapes is the one statement of a head's parameter layout: each
tensor's checkpoint name and shape, in the model buffer's order.
take_head_params builds the head's dataclass from tensors in that
order, so a field's place in the dataclass is its place in the layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .encoder import INIT_STD, ModelConfig, draw_normal, dropout_rates
from .tensor import (
    Tensor, add, depth_attention, dropout, linear, scale,
)


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


@dataclass
class FinalHeadParams:
    w_out: Tensor
    b_out: Tensor


@dataclass
class AvglHeadParams:
    w_proj: list[Tensor]
    b_proj: list[Tensor]
    w_out: Tensor
    b_out: Tensor


@dataclass
class MhmlaHeadParams:
    """Stored as the forward reads them; layer 0 here is encoder layer 1.
    Per layer l, w_k[l] [h x J*dk] and b_k[l] [J*dk] hold the J heads'
    key maps side by side, and w_v[l] [h x h] and b_v[l] [h] their value
    maps.  w_a [L*J*dk x 1] and b_a [L*J] score every (layer, head) pair:
    pair (l, j) owns dk rows of w_a and entry l*J + j of b_a."""
    w_v: list[Tensor]
    b_v: list[Tensor]
    w_k: list[Tensor]
    b_k: list[Tensor]
    w_a: Tensor
    b_a: Tensor
    w_out: Tensor
    b_out: Tensor


HeadParams = FinalHeadParams | AvglHeadParams | MhmlaHeadParams


def head_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple]]:
    """The checkpoint name and shape of every tensor of config's head, in
    buffer order: layer by layer the entries of the dataclass's list
    fields, then its other fields in field order.  Lazy, as
    encoder_shapes."""
    h, L = config.hidden, config.n_layers
    if config.head_type == "avgl":
        for l in range(L):
            yield f"head.proj.{l:02d}.w", (h, h)
            yield f"head.proj.{l:02d}.b", (h,)
    elif config.head_type == "mhmla":
        J = config.layer_attn_heads
        keys = J * config.key_dim
        att = [("w_v", (h, h)), ("b_v", (h,)), ("w_k", (h, keys)),
               ("b_k", (keys,))]
        per_layer = ((f"{l:02d}.{name}", shape)
                     for l in range(L) for name, shape in att)
        for name, shape in chain(per_layer, [("w_a", (L * keys, 1)),
                                             ("b_a", (L * J,))]):
            yield f"head.att.{name}", shape
    yield "head.w_out", (h, config.n_classes)
    yield "head.b_out", (config.n_classes,)


def take_head_params(config: ModelConfig,
                     tensors: Iterator[Tensor]) -> HeadParams:
    """config's head tensors, taken from the iterator in head_shapes
    order."""
    if config.head_type == "final":
        return FinalHeadParams(*islice(tensors, 2))
    per_layer = 2 if config.head_type == "avgl" else 4
    columns = map(list, zip(*[tuple(islice(tensors, per_layer))
                              for _ in range(config.n_layers)]))
    if config.head_type == "avgl":
        return AvglHeadParams(*columns, *islice(tensors, 2))
    return MhmlaHeadParams(*columns, *islice(tensors, 4))


def draw_head_params(params: HeadParams, config: ModelConfig,
                     rng: np.random.Generator,
                     init_std: float = INIT_STD) -> None:
    """Draw the weights of zeroed head tensors in place, N(0,
    init_std); biases stay 0.  The MHMLA head draws every w_v, then
    every w_k, each one head's block of columns at a time, then w_a and
    w_out: the order in which one tensor per (layer, head) pair was
    drawn, so a seed keeps its model."""
    if config.head_type == "avgl":
        draw_normal(rng, init_std, *params.w_proj)
    elif config.head_type == "mhmla":
        h, J = config.hidden, config.layer_attn_heads
        for w in params.w_v + params.w_k:
            heads = w.data.reshape(h, J, -1)
            for j in range(J):
                heads[:, j] = rng.normal(0.0, init_std, size=heads[:, j].shape)
        draw_normal(rng, init_std, params.w_a)
    draw_normal(rng, init_std, params.w_out)


def _check_states(states, config: ModelConfig) -> None:
    if len(states) != config.n_layers:
        raise ValueError(f"expected L = {config.n_layers} layer states, "
                         f"got {len(states)}")
    n = states[0].shape[0]
    for lvl, s in enumerate(states):
        if s.shape != (n, config.hidden):
            raise ValueError(
                f"state {lvl} has shape {s.shape}, expected ({n}, {config.hidden})")


def final_layer_forward(states, params: FinalHeadParams, config: ModelConfig,
                        rng=None) -> Tensor:
    """Class logits h^L W + b per token."""
    _check_states(states, config)
    h = dropout(states[-1], dropout_rates(config, rng)[0], rng)
    return linear(h, params.w_out, params.b_out)


def avgl_forward(states, params: AvglHeadParams, config: ModelConfig,
                 rng=None) -> Tensor:
    """Class logits of the mean of per-layer transforms of the L
    states."""
    _check_states(states, config)
    if len(params.w_proj) != config.n_layers:
        raise ValueError("avgl params do not match n_layers")
    rate = dropout_rates(config, rng)[0]
    total = None
    for l in range(config.n_layers):
        h = dropout(states[l], rate, rng)
        term = linear(h, params.w_proj[l], params.b_proj[l])
        total = term if total is None else add(total, term)
    c = scale(total, 1.0 / config.n_layers)
    return linear(c, params.w_out, params.b_out)


def layer_attention_weights(states, params: MhmlaHeadParams,
                            config: ModelConfig, rng=None) -> AttentionRecord:
    """Just the depth-attention distributions, as a record."""
    return mhmla_forward(states, params, config, rng)[1]


def mhmla_forward(states, params: MhmlaHeadParams, config: ModelConfig,
                  rng=None) -> tuple[Tensor, AttentionRecord]:
    """Class logits plus the attention weights that produced them: one
    tensor.depth_attention node over the L states."""
    _check_states(states, config)
    logits, weights = depth_attention(
        states, params.w_k, params.b_k, params.w_a, params.b_a,
        params.w_v, params.b_v, params.w_out, params.b_out,
        *dropout_rates(config, rng), rng)
    record = AttentionRecord(weights.transpose(0, 2, 1))
    return logits, record
