"""Whole-model assembly: encoder plus classification head, a flat view
of all trainable parameters, and word-level inference."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .encoder import (
    INIT_STD, EncoderParams, ModelConfig, encode, init_encoder_params,
)
from .heads import (
    AttentionRecord, HeadParams, avgl_forward, final_layer_forward,
    init_head_params, layer_attention_weights, mhmla_forward,
)
from .tensor import Tensor, gather_rows, no_grad


@dataclass
class Model:
    config: ModelConfig
    encoder: EncoderParams
    head: HeadParams


def init_model(config: ModelConfig, rng: np.random.Generator,
               init_std: float = INIT_STD) -> Model:
    return Model(config=config,
                 encoder=init_encoder_params(config, rng, init_std=init_std),
                 head=init_head_params(config, rng, init_std=init_std))


def named_parameters(model: Model) -> Iterator[tuple[str, Tensor]]:
    """Every trainable tensor with a stable dotted name.  The order is
    deterministic: encoder first, then the head."""
    yield from model.encoder.named()
    yield from model.head.named()


def parameter_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple]]:
    """The name and shape of every tensor named_parameters yields for
    init_model(config), in the same order, without allocating any of
    them.  Lazy, so a caller can stop after as many entries as it is
    willing to hold: a config may ask for any number of layers."""
    h, f, c = config.hidden, config.ffn_dim, config.n_classes
    yield "embed.token", (config.vocab_size, h)
    yield "embed.position", (config.max_len, h)
    block = [(f"attn.{w}_{x}", (h, h) if w == "w" else (h,))
             for x in "qkvo" for w in "wb"]
    block += [("ln1.gain", (h,)), ("ln1.bias", (h,)), ("ffn.w1", (h, f)),
              ("ffn.b1", (f,)), ("ffn.w2", (f, h)), ("ffn.b2", (h,)),
              ("ln2.gain", (h,)), ("ln2.bias", (h,))]
    for i in range(config.n_layers):
        for name, shape in block:
            yield f"enc.{i:02d}.{name}", shape
    if config.head_type == "avgl":
        for l in range(config.n_layers):
            yield f"head.proj.{l:02d}.w", (h, h)
            yield f"head.proj.{l:02d}.b", (h,)
    elif config.head_type == "mhmla":
        pairs = config.n_layers * config.layer_attn_heads
        keys = config.layer_attn_heads * config.key_dim
        att = [("w_v", (h, h)), ("b_v", (h,)), ("w_k", (h, keys)),
               ("b_k", (keys,))]
        for l in range(config.n_layers):
            for name, shape in att:
                yield f"head.att.{l:02d}.{name}", shape
        yield "head.att.w_a", (pairs * config.key_dim, 1)
        yield "head.att.b_a", (pairs,)
    yield "head.w_out", (h, c)
    yield "head.b_out", (c,)


def select_first_subtoken_states(state: Tensor, first_sub_index) -> Tensor:
    """One row per word: the row of the word's first sub-token.
    Gradients scatter back to exactly those rows."""
    idx = np.asarray(first_sub_index, dtype=np.int64)
    if idx.size and np.any(np.diff(idx) <= 0):
        raise ValueError("first_sub_index must be strictly increasing")
    return gather_rows(state, idx)


def head_forward(states: list[Tensor], model: Model,
                 train_mode: bool = False,
                 rng: np.random.Generator | None = None):
    """Class probabilities from a stack of layer states.

    Returns (probs, record); record is None for head types that do not
    attend over depth.
    """
    cfg = model.config
    if cfg.head_type == "final":
        return final_layer_forward(states, model.head, cfg,
                                   train_mode=train_mode, rng=rng), None
    if cfg.head_type == "avgl":
        return avgl_forward(states, model.head, cfg,
                            train_mode=train_mode, rng=rng), None
    return mhmla_forward(states, model.head, cfg, train_mode=train_mode,
                         rng=rng)


def predict_word_probs(model: Model, sub_ids, first_sub_index,
                       train_mode: bool = False,
                       rng: np.random.Generator | None = None):
    """One sentence end to end: encode the sub-tokens, keep the first
    sub-token row of each word, classify those rows.

    Returns (probs [n_words x n_classes], record or None).
    """
    states = encode(sub_ids, model.encoder, model.config,
                    train_mode=train_mode, rng=rng)
    word_states = [select_first_subtoken_states(s, first_sub_index)
                   for s in states]
    return head_forward(word_states, model, train_mode=train_mode, rng=rng)


def word_attention(model: Model, sub_ids, first_sub_index) -> AttentionRecord:
    """Depth-attention weights at the word positions, eval mode.  Runs
    under no_grad: the record holds plain arrays, so a recorded tape
    would only grow with every call."""
    if model.config.head_type != "mhmla":
        raise ValueError(
            f"head type {model.config.head_type!r} has no depth attention")
    with no_grad():
        states = encode(sub_ids, model.encoder, model.config)
        word_states = [select_first_subtoken_states(s, first_sub_index)
                       for s in states]
        return layer_attention_weights(word_states, model.head, model.config)
