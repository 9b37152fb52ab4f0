"""Whole-model assembly: encoder plus classification head, a flat view
of all trainable parameters, and the one forward from sentences to word
probabilities that training, evaluation and attention export share."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import LABEL_ERR, TokenizedSentence
from .encoder import (
    INIT_STD, EncoderParams, ModelConfig, encode_batch, init_encoder_params,
)
# layer_attention_weights is not called here; the benchmark's tracer
# (perfbench/spans.py) wraps it as an attribute of this module
from .heads import (  # noqa: F401
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


def label_targets(labels: Sequence[str]) -> list[int]:
    """Class index per label: clean 0, error 1."""
    return [1 if lab == LABEL_ERR else 0 for lab in labels]


def word_rows(first_sub_index: Sequence, padded_len: int) -> np.ndarray:
    """Row of each word's first sub-token in the flattened [B*T x H]
    layout, batch order; first_sub_index[b] holds sentence b's word
    starts, which must be strictly increasing and below padded_len."""
    starts = [np.asarray(f, dtype=np.int64) for f in first_sub_index]
    local = np.concatenate(starts)
    if local.size and (local.min() < 0 or local.max() >= padded_len):
        raise ValueError(f"first sub-token index out of range: valid "
                         f"[0, {padded_len}), got [{local.min()}, "
                         f"{local.max()}]")
    rows = local + np.repeat(np.arange(len(starts)) * padded_len,
                             [s.size for s in starts])
    # in range, the rows rise across sentence boundaries, so this only
    # fails inside a sentence
    if np.any(np.diff(rows) <= 0):
        raise ValueError("first_sub_index must be strictly increasing")
    return rows


def batch_word_rows(batch: Sequence[TokenizedSentence], padded_len: int):
    """word_rows of a batch of sentences, plus each word's class
    target, batch order."""
    rows = word_rows([s.first_sub_index for s in batch], padded_len)
    return rows, label_targets([lab for s in batch for lab in s.labels])


def encode(model: Model, sub_ids: Sequence, train_mode: bool = False,
           rng: np.random.Generator | None = None) -> list[Tensor]:
    """Every layer's states of several sentences' sub-token ids as one
    padded batch: L+1 tensors of [B*T x hidden], row b*T + n for token
    n of sentence b (encode_batch)."""
    states, _ = encode_batch(sub_ids, model.encoder, model.config,
                             train_mode=train_mode, rng=rng)
    return states


def forward_batch(model: Model, sub_ids: Sequence, first_sub_index: Sequence,
                  train_mode: bool = False,
                  rng: np.random.Generator | None = None):
    """Several sentences end to end as one padded batch: encode the
    sub-tokens, keep the first sub-token row of each word, classify
    those rows.  sub_ids[b] and first_sub_index[b] are sentence b's.

    Returns (probs [n_words x n_classes], record or None), the words in
    batch order; record is None for head types that do not attend over
    depth.
    """
    states = encode(model, sub_ids, train_mode=train_mode, rng=rng)
    rows = word_rows(first_sub_index, states[0].shape[0] // len(sub_ids))
    return head_forward([gather_rows(s, rows) for s in states], model,
                        train_mode=train_mode, rng=rng)


def predict_word_probs(model: Model, sub_ids, first_sub_index,
                       train_mode: bool = False,
                       rng: np.random.Generator | None = None):
    """forward_batch on one sentence.

    Returns (probs [n_words x n_classes], record or None).
    """
    return forward_batch(model, [sub_ids], [first_sub_index],
                         train_mode=train_mode, rng=rng)


def word_attention(model: Model, sub_ids, first_sub_index) -> AttentionRecord:
    """Depth-attention weights at the word positions, eval mode.  Runs
    under no_grad: the record holds plain arrays, so a recorded tape
    would only grow with every call."""
    if model.config.head_type != "mhmla":
        raise ValueError(
            f"head type {model.config.head_type!r} has no depth attention")
    with no_grad():
        return predict_word_probs(model, sub_ids, first_sub_index)[1]
