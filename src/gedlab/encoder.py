"""Miniature post-norm transformer encoder.

Per token: learned token + position embeddings, then n_layers blocks of
multi-head scaled dot-product self-attention and a relu FFN, each with
residual + layer norm.  Every block's output is kept so heads can
attend over depth.

A batch is one padded [B*T x hidden] matrix: one tensor.embed node,
then one tensor.encoder_block node per block.  Each sentence attends
only over its own real positions; PAD rows still flow through as
queries, and callers ignore them.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from typing import Iterator

import numpy as np

from .corpus import PAD_ID
from .tensor import Tensor, dropout, embed, encoder_block

HEAD_TYPES = ("final", "avgl", "mhmla")
INIT_STD = 0.02


def check_field_types(config) -> None:
    """Hold each field of a config dataclass to its annotation (read as
    a string), before any range check reads it.  An int field takes a
    Python int, not a bool (a numpy int would not survive the JSON
    checkpoint header); a float field a finite int or float, not a
    bool; a str field a str; an `X | None` field may also be None."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if kind == "int":
            ok, want = type(value) is int, "an int"
        elif kind == "float":
            try:  # isfinite raises on an int too large for a float
                ok = type(value) in (int, float) and math.isfinite(value)
            except OverflowError:
                ok = False
            want = "a finite number"
        else:
            ok, want = type(value) is str, "a string"
        if not ok:
            raise ValueError(f"{f.name} must be {want}, got {value!r}")


@dataclass
class ModelConfig:
    """Architecture knobs.  key_dim defaults to hidden // layer_attn_heads."""
    n_layers: int = 4
    hidden: int = 64
    self_attn_heads: int = 4
    ffn_dim: int = 128
    layer_attn_heads: int = 4
    key_dim: int | None = None
    vocab_size: int = 4
    max_len: int = 32
    n_classes: int = 2
    dropout: float = 0.3
    attn_dropout: float = 0.3
    head_type: str = "mhmla"

    def __post_init__(self):
        check_field_types(self)
        for name in ("n_layers", "hidden", "self_attn_heads", "ffn_dim",
                     "layer_attn_heads", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.key_dim is None:
            self.key_dim = self.hidden // self.layer_attn_heads
        if self.key_dim < 1:
            raise ValueError(f"key_dim must be >= 1, got {self.key_dim}")
        if self.hidden % self.self_attn_heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) not divisible by self_attn_heads "
                f"({self.self_attn_heads})")
        if self.hidden % self.layer_attn_heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) not divisible by layer_attn_heads "
                f"({self.layer_attn_heads})")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the 4 reserved ids")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        for name in ("dropout", "attn_dropout"):
            r = getattr(self, name)
            if not 0.0 <= r < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {r}")
        if self.head_type not in HEAD_TYPES:
            raise ValueError(
                f"head_type must be one of {HEAD_TYPES}, got {self.head_type!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class LayerParams:
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    w_ff1: Tensor
    b_ff1: Tensor
    w_ff2: Tensor
    b_ff2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class EncoderParams:
    token_embedding: Tensor
    position_embedding: Tensor
    layers: list[LayerParams] = field(default_factory=list)


def encoder_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple]]:
    """The checkpoint name and shape of every encoder tensor, in buffer
    order: both embeddings, then each block's tensors in LayerParams
    field order.  Lazy: a config may ask for any number of layers."""
    h, f = config.hidden, config.ffn_dim
    yield "embed.token", (config.vocab_size, h)
    yield "embed.position", (config.max_len, h)
    block = [("attn.w_q", (h, h)), ("attn.b_q", (h,)), ("attn.w_k", (h, h)),
             ("attn.w_v", (h, h)), ("attn.b_v", (h,)), ("attn.w_o", (h, h)),
             ("attn.b_o", (h,)), ("ln1.gain", (h,)), ("ln1.bias", (h,)),
             ("ffn.w1", (h, f)), ("ffn.b1", (f,)), ("ffn.w2", (f, h)),
             ("ffn.b2", (h,)), ("ln2.gain", (h,)), ("ln2.bias", (h,))]
    for i in range(config.n_layers):
        for name, shape in block:
            yield f"enc.{i:02d}.{name}", shape


def take_encoder_params(config: ModelConfig,
                        tensors: Iterator[Tensor]) -> EncoderParams:
    """The encoder's tensors, taken from the iterator in encoder_shapes
    order."""
    token, position = next(tensors), next(tensors)
    per_block = len(fields(LayerParams))
    return EncoderParams(token, position, [
        LayerParams(*islice(tensors, per_block))
        for _ in range(config.n_layers)])


def draw_normal(rng: np.random.Generator, std: float,
                *tensors: Tensor) -> None:
    """Fill each tensor's data with N(0, std) in place, in turn: the
    numbers rng.normal(0.0, std, size) would give, with no temporary."""
    for t in tensors:
        rng.standard_normal(out=t.data)
        t.data *= std


def draw_encoder_params(params: EncoderParams, rng: np.random.Generator,
                        init_std: float = INIT_STD) -> None:
    """Initialize zeroed encoder tensors in place: weights N(0,
    init_std), biases left 0, layer-norm gain 1.  Each layer's six
    weights are drawn in turn, then both embeddings.  Gradient checks
    pass a larger std to lift every gradient above finite-difference
    noise."""
    for lp in params.layers:
        draw_normal(rng, init_std, lp.w_q, lp.w_k, lp.w_v, lp.w_o,
                    lp.w_ff1, lp.w_ff2)
        lp.ln1_gain.data[...] = 1.0
        lp.ln2_gain.data[...] = 1.0
    draw_normal(rng, init_std, params.token_embedding,
                params.position_embedding)


def dropout_rates(config: ModelConfig,
                  rng: np.random.Generator | None) -> tuple[float, float]:
    """(dropout, attn_dropout): config's for a forward given an rng, a
    training forward; (0, 0) for one without, an eval forward."""
    return (0.0, 0.0) if rng is None else (config.dropout, config.attn_dropout)


def encode_batch(sentences: list, params: EncoderParams, config: ModelConfig,
                 rng: np.random.Generator | None = None):
    """The encoder's only forward: the sentences padded with PAD_ID to
    the longest, row b * T + n holding token n of sentence b.  A query
    sees only its own sentence's real tokens (PAD keys get exactly zero
    weight), so real rows equal the per-sentence forward, every value
    stays finite, and at a fixed T work and memory grow linearly in B.
    Given an rng it is a training forward.  Returns (states, real): the
    L block outputs, each [B*T x hidden], and the real rows' mask."""
    if not sentences:
        raise ValueError("encode_batch needs at least one sentence")
    t_max = max(len(s) for s in sentences)
    if t_max > config.max_len:
        raise ValueError(
            f"sequence of {t_max} tokens exceeds max_len {config.max_len}; "
            f"truncate before encoding")
    ids = np.full((len(sentences), t_max), PAD_ID, dtype=np.int64)
    for b, s in enumerate(sentences):
        arr = np.asarray(s, dtype=np.int64)
        if arr.size == 0:
            raise ValueError(f"sentence {b} is empty")
        ids[b, :arr.size] = arr
    # embed rejects an id out of the token table's range
    h = embed(params.token_embedding, params.position_embedding,
              ids.reshape(-1), np.tile(np.arange(t_max), len(sentences)))
    rate, attn_rate = dropout_rates(config, rng)
    h = dropout(h, rate, rng)
    key_real = ids != PAD_ID
    states = []
    for lp in params.layers:
        h = encoder_block(h, *(getattr(lp, f.name) for f in fields(lp)),
                          key_real, config.self_attn_heads, rate, attn_rate,
                          rng)
        states.append(h)
    return states, key_real.reshape(-1)
