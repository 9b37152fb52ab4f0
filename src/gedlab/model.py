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
