"""Whole-model assembly: encoder plus classification head, all
trainable parameters as views of one flat buffer, laid out by the
encoder's and the head's layout lists (encoder_shapes, head_shapes),
and the one forward from sentences to word class logits that training,
evaluation and attention export share."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import LABEL_ERR, TokenizedSentence
from .encoder import (
    INIT_STD, EncoderParams, ModelConfig, draw_encoder_params, encode_batch,
    encoder_shapes, take_encoder_params,
)
# layer_attention_weights is not called here; the benchmark's tracer
# (perfbench/spans.py) wraps it as an attribute of this module
from .heads import (  # noqa: F401
    AttentionRecord, HeadParams, avgl_forward, draw_head_params,
    final_layer_forward, head_shapes, layer_attention_weights,
    mhmla_forward, take_head_params,
)
from .tensor import Tensor, gather_rows, no_grad


@dataclass
class Model:
    """flat holds every parameter, laid out in parameter_shapes order;
    named lists each parameter with its checkpoint name in that order,
    and each one's data is its view of flat."""
    config: ModelConfig
    encoder: EncoderParams
    head: HeadParams
    flat: np.ndarray
    named: list[tuple[str, Tensor]]


def parameter_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple]]:
    """The checkpoint name and shape of every parameter of a model of
    config, encoder first, then the head, without allocating any of
    them.  Lazy, so a caller can stop after as many entries as it is
    willing to hold: a config may ask for any number of layers."""
    yield from encoder_shapes(config)
    yield from head_shapes(config)


def alloc_model(config: ModelConfig) -> Model:
    """A model whose parameters are views of one zeroed float64 buffer,
    one per parameter_shapes entry, in turn.  Draws nothing:
    load_checkpoint fills the buffer from a file."""
    flat = np.zeros(sum(math.prod(s) for _, s in parameter_shapes(config)))
    named, cursor = [], 0
    for name, shape in parameter_shapes(config):
        size = math.prod(shape)
        named.append((name, Tensor(flat[cursor:cursor + size].reshape(shape),
                                   requires_grad=True)))
        cursor += size
    tensors = (t for _, t in named)
    return Model(config, take_encoder_params(config, tensors),
                 take_head_params(config, tensors), flat, named)


def init_model(config: ModelConfig, rng: np.random.Generator,
               init_std: float = INIT_STD) -> Model:
    """A fresh model: alloc_model, then the encoder and the head draw
    their weights into its buffer, in that order."""
    model = alloc_model(config)
    draw_encoder_params(model.encoder, rng, init_std)
    draw_head_params(model.head, config, rng, init_std)
    return model


def check_views(named_params, flat: np.ndarray, checked=()) -> list:
    """Raise ValueError naming the first parameter whose data is not its
    view of flat, at its offset in this order, or if the parameters do
    not fill flat.  Run before reading or writing flat in place of the
    tensors, so a rebound p.data is never saved or updated stale.

    Returns the parameters' arrays in order.  Passed back as checked,
    they reduce the next call to one identity test per parameter while
    every p.data is still the array this call checked."""
    named_params = list(named_params)
    arrays = [p.data for _, p in named_params]
    if len(arrays) == len(checked) and all(
            a is c for a, c in zip(arrays, checked)):
        return arrays
    base, start = flat.__array_interface__["data"][0], 0
    for (name, _), a in zip(named_params, arrays):
        if (a.base is not flat or a.__array_interface__["data"][0]
                != base + start * flat.itemsize):
            raise ValueError(f"{name} is not its view of the parameter "
                             f"buffer at entry {start}: its data was "
                             f"rebound, or the order differs")
        start += a.size
    if start != flat.size:
        raise ValueError(f"the parameters fill {start} of the parameter "
                         f"buffer's {flat.size} entries")
    return arrays


def head_forward(states: list[Tensor], model: Model,
                 rng: np.random.Generator | None = None):
    """Class logits from the L block outputs.

    Returns (logits, record); record is None for head types that do not
    attend over depth.
    """
    cfg = model.config
    if cfg.head_type == "final":
        return final_layer_forward(states, model.head, cfg, rng), None
    if cfg.head_type == "avgl":
        return avgl_forward(states, model.head, cfg, rng), None
    return mhmla_forward(states, model.head, cfg, rng)


def label_targets(labels: Sequence[str]) -> list[int]:
    """Class index per label: clean 0, error 1."""
    return [1 if lab == LABEL_ERR else 0 for lab in labels]


def word_rows(first_sub_index: Sequence, lengths: Sequence,
              padded_len: int) -> np.ndarray:
    """Row of each word's first sub-token in the flattened [B*T x H]
    layout, T = padded_len, batch order.  first_sub_index[b] holds the
    word starts of sentence b, whose lengths[b] sub-tokens fill rows
    b*T to b*T + lengths[b] - 1; its starts must be strictly increasing
    and below lengths[b], so no word is read off a PAD row."""
    starts = [np.asarray(f, dtype=np.int64) for f in first_sub_index]
    sizes = [s.size for s in starts]
    local = np.concatenate(starts)
    limit = np.repeat(np.asarray(lengths, dtype=np.int64), sizes)
    bad = (local < 0) | (local >= limit)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"first sub-token index out of range: {local[i]} "
                         f"in a sentence of {limit[i]} sub-tokens")
    if max(lengths, default=0) > padded_len:
        raise ValueError(f"a sentence of {max(lengths)} sub-tokens does not "
                         f"fit a padded length of {padded_len}")
    rows = local + np.repeat(np.arange(len(starts)) * padded_len, sizes)
    # in range, the rows rise across sentence boundaries, so this only
    # fails inside a sentence
    if np.any(np.diff(rows) <= 0):
        raise ValueError("first_sub_index must be strictly increasing")
    return rows


def batch_word_rows(batch: Sequence[TokenizedSentence], padded_len: int):
    """word_rows of a batch of sentences, plus each word's class
    target, batch order."""
    rows = word_rows([s.first_sub_index for s in batch],
                     [len(s.sub_ids) for s in batch], padded_len)
    return rows, label_targets([lab for s in batch for lab in s.labels])


def encode(model: Model, sub_ids: Sequence,
           rng: np.random.Generator | None = None) -> list[Tensor]:
    """The L block outputs of several sentences' sub-token ids as one
    padded batch, each [B*T x hidden], row b*T + n for token n of
    sentence b (encode_batch)."""
    return encode_batch(sub_ids, model.encoder, model.config, rng)[0]


def forward_batch(model: Model, sub_ids: Sequence, first_sub_index: Sequence,
                  rng: np.random.Generator | None = None):
    """Several sentences end to end as one padded batch: encode the
    sub-tokens, keep the first sub-token row of each word, classify
    those rows.  sub_ids[b] and first_sub_index[b] are sentence b's.
    Given an rng it is a training forward; without one it draws nothing.

    Returns (logits [n_words x n_classes], record or None), the words in
    batch order; record is None for head types that do not attend over
    depth.
    """
    states = encode(model, sub_ids, rng)
    rows = word_rows(first_sub_index, [len(s) for s in sub_ids],
                     states[0].shape[0] // len(sub_ids))
    return head_forward([gather_rows(s, rows) for s in states], model, rng)


def predict_word_probs(model: Model, sub_ids, first_sub_index):
    """forward_batch on one sentence, an eval forward.

    Returns (logits [n_words x n_classes], record or None).
    """
    return forward_batch(model, [sub_ids], [first_sub_index])


def word_attention(model: Model, sub_ids, first_sub_index) -> AttentionRecord:
    """Depth-attention weights at the word positions, eval mode.  Runs
    under no_grad: the record holds plain arrays, so a recorded tape
    would only grow with every call."""
    if model.config.head_type != "mhmla":
        raise ValueError(
            f"head type {model.config.head_type!r} has no depth attention")
    with no_grad():
        return predict_word_probs(model, sub_ids, first_sub_index)[1]
