"""Cross-entropy training with Adam, plus binary checkpoints.

The loop is deterministic given (corpus, configs, seed): one generator
drives initialization, shuffling and dropout in a fixed order, batches
are padded to the in-batch maximum, and only first-sub-token rows of
real words enter the loss.
"""
from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .corpus import LABEL_ERR, LabeledCorpus, TokenizedSentence
from .encoder import ModelConfig, check_field_types, encode_batch
from .model import (
    Model, head_forward, init_model, named_parameters, parameter_shapes,
)
from .tensor import Tensor, backward, cross_entropy, gather_rows, reset_graph

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"MHMLA1"


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    batch_size: int = 32
    epochs: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {b}")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


# -------------------------------------------------------------------- Adam

@dataclass
class AdamState:
    """Adam's step count and moments over one flat float64 buffer.

    The first adam_step joins the parameters it is given into `flat`
    and makes each p.data a view of it.  `m`, `v` and the joined
    gradient share that layout, so one vectorized update covers every
    tensor.  Later steps must pass the same parameters in the same
    order."""
    t: int = 0
    flat: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    grad: np.ndarray | None = None
    scratch: np.ndarray | None = None
    views: list = field(default_factory=list)


def _adopt(params: list, state: AdamState) -> None:
    """Join the parameters into state.flat and rebind each p.data to
    its view there."""
    state.flat = np.concatenate([p.data.reshape(-1) for _, p in params])
    state.m, state.v, state.grad, state.scratch = (
        np.zeros_like(state.flat) for _ in range(4))
    start = 0
    for _, p in params:
        view = state.flat[start:start + p.data.size].reshape(p.data.shape)
        start += view.size
        state.views.append(view)
        p.data = view


def _first_nonfinite(params: list, joined: np.ndarray) -> str:
    """Name of the first parameter whose slice of joined is not finite."""
    start = 0
    for name, p in params:
        stop = start + p.data.size
        if not np.isfinite(joined[start:stop]).all():
            return name
        start = stop
    raise AssertionError("every entry is finite")


def adam_step(named_params, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of every parameter, in place.

    A parameter whose grad is None keeps its value and moments.  A
    non-finite gradient raises FloatingPointError naming the first bad
    parameter before anything, t included, is written; a non-finite
    value after the update raises it too, naming the parameter.  A
    p.data rebound since the first step, so no longer a view of the
    buffer, raises ValueError naming it."""
    params = list(named_params)
    if state.flat is None:
        _adopt(params, state)
    elif len(params) != len(state.views):
        raise ValueError(f"adam_step got {len(params)} parameters, its "
                         f"buffer holds {len(state.views)}")
    grads, skipped, start = [], [], 0
    for (name, p), view in zip(params, state.views):
        if p.data is not view:
            raise ValueError(
                f"{name} is no longer a view of the Adam buffer: its data "
                f"was rebound after the first step")
        g = p.grad
        if g is None:
            g = np.zeros(view.shape)
            skipped.append(slice(start, start + view.size))
        elif g.shape != view.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match {name} {view.shape}")
        grads.append(g.reshape(-1))
        start += view.size
    flat, m, v, g, s = state.flat, state.m, state.v, state.grad, state.scratch
    np.concatenate(grads, out=g)
    t = state.t + 1
    if not np.isfinite(g).all():
        raise FloatingPointError(
            f"non-finite gradient in {_first_nonfinite(params, g)} at step {t}")
    state.t = t
    kept = [(a, k, a[k].copy()) for k in skipped for a in (flat, m, v)]
    # per entry, in this order: m = b1*m + (1-b1)*g,
    # v = b2*v + ((1-b2)*g)*g, then
    # p -= (lr * m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)
    b1, b2 = config.beta1, config.beta2
    m *= b1
    np.multiply(g, 1.0 - b1, out=s)
    m += s
    v *= b2
    np.multiply(g, 1.0 - b2, out=s)
    s *= g
    v += s
    np.divide(v, 1.0 - b2 ** t, out=s)
    np.sqrt(s, out=s)
    s += config.adam_eps
    np.divide(m, 1.0 - b1 ** t, out=g)
    g *= config.learning_rate
    g /= s
    flat -= g
    for a, k, saved in kept:
        a[k] = saved
    if not np.isfinite(flat).all():
        raise FloatingPointError(
            f"non-finite value in {_first_nonfinite(params, flat)} at step {t}")


# ------------------------------------------------------------- batch setup

def label_targets(labels: Sequence[str]) -> list[int]:
    """Class index per label: clean 0, error 1."""
    return [1 if lab == LABEL_ERR else 0 for lab in labels]


def batch_word_rows(batch: Sequence[TokenizedSentence], padded_len: int):
    """Row index of each word in the flattened [B*T x H] layout, plus
    its class target, batch order."""
    rows: list[int] = []
    targets: list[int] = []
    for b, sent in enumerate(batch):
        base = b * padded_len
        rows.extend(base + k for k in sent.first_sub_index)
        targets.extend(label_targets(sent.labels))
    return np.asarray(rows, dtype=np.int64), targets


def batch_loss(model: Model, batch: Sequence[TokenizedSentence],
               train_mode: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy over the words of a batch."""
    states, _ = encode_batch([s.sub_ids for s in batch], model.encoder,
                             model.config, train_mode=train_mode, rng=rng)
    padded_len = states[0].shape[0] // len(batch)
    rows, targets = batch_word_rows(batch, padded_len)
    word_states = [gather_rows(s, rows) for s in states]
    probs, _ = head_forward(word_states, model, train_mode=train_mode, rng=rng)
    return cross_entropy(probs, targets)


# ---------------------------------------------------------------- the loop

@dataclass
class TrainResult:
    model: Model
    epoch_losses: list[float]
    n_steps: int


def train(corpus: LabeledCorpus, model_config: ModelConfig,
          train_config: TrainConfig) -> TrainResult:
    """Fit a fresh model, built from model_config as given (dropout
    rates included), on a tokenized corpus.

    One seeded generator drives init, per-epoch shuffling and dropout,
    so identical inputs give bit-identical loss traces and parameters.
    Returns the model and the word-weighted mean loss of each epoch.
    """
    sentences = corpus.tokenized
    if not sentences:
        raise ValueError("training corpus is empty")
    rng = np.random.default_rng(train_config.seed)
    model = init_model(model_config, rng)
    params = list(named_parameters(model))
    state = AdamState()
    losses: list[float] = []
    for epoch in range(train_config.epochs):
        order = rng.permutation(len(sentences))
        loss_sum = 0.0
        word_count = 0
        for start in range(0, len(order), train_config.batch_size):
            batch = [sentences[i] for i in order[start:start + train_config.batch_size]]
            reset_graph()
            loss = batch_loss(model, batch, train_mode=True, rng=rng)
            backward(loss)
            adam_step(params, state, train_config)
            for _, p in params:
                p.zero_grad()
            n_words = sum(len(s.words) for s in batch)
            loss_sum += loss.item() * n_words
            word_count += n_words
        losses.append(loss_sum / word_count)
        log.info("epoch %d/%d  mean loss %.6f", epoch + 1,
                 train_config.epochs, losses[-1])
    reset_graph()
    # snap parameters onto the float32 grid checkpoints use, so the
    # returned model predicts bit-identically to its saved-and-reloaded
    # copy
    for _, p in params:
        p.data = p.data.astype("<f4").astype(np.float64)
    return TrainResult(model=model, epoch_losses=losses, n_steps=state.t)


# -------------------------------------------------------------- checkpoints

def _sorted_entries(model: Model) -> list[tuple[str, Tensor]]:
    entries = sorted(named_parameters(model), key=lambda kv: kv[0])
    names = [n for n, _ in entries]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names in model")
    return entries


def checkpoint_bytes(model: Model) -> bytes:
    """Serialized form: magic, little-endian u32 header length, a
    canonical JSON header (config plus name/shape/offset manifest,
    sorted), then all parameters as little-endian float32."""
    entries = _sorted_entries(model)
    manifest = []
    offset = 0
    chunks = []
    for name, t in entries:
        raw = t.data.astype("<f4").tobytes()
        manifest.append({"name": name, "shape": list(t.data.shape),
                         "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    header = {"config": model.config.to_dict(), "manifest": manifest}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(head)), head,
                     *chunks])


def save_checkpoint(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model))


def load_checkpoint(path) -> Model:
    """Rebuild a model from disk.  Parameters come back as float64
    copies of the stored float32 values, so re-saving is byte-identical.

    Nothing is allocated until the manifest matches the config's
    parameter shapes name by name and the payload holds exactly 4 bytes
    per float those shapes need, so a header cannot ask for more memory
    than the file's own size accounts for."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    fixed = len(CHECKPOINT_MAGIC) + 4
    if len(blob) < fixed:
        raise CheckpointError(f"{path}: truncated before header")
    (head_len,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):fixed])
    if len(blob) < fixed + head_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[fixed:fixed + head_len].decode("utf-8"))
        if not isinstance(header, dict) or not isinstance(
                header.get("config"), dict):
            raise ValueError("config is not an object")
        config = ModelConfig.from_dict(header["config"])
        manifest = header.get("manifest")
        if not isinstance(manifest, list) or not all(
                isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in e["shape"])
                and type(e.get("offset")) is int for e in manifest):
            raise ValueError("manifest is not a list of {name: string, "
                             "shape: [int >= 0], offset: int} objects")
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from exc
    payload = blob[fixed + head_len:]
    # at most one entry more than the manifest lists: enough to tell
    # that the config wants more, however many layers it asks for
    shapes = dict(islice(parameter_shapes(config), len(manifest) + 1))
    if len(shapes) > len(manifest):
        raise CheckpointError(
            f"{path}: manifest is missing parameters: the config needs "
            f"more than the {len(manifest)} it lists")
    seen = set()
    cursor = 0
    for entry in manifest:
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        if name in seen:
            raise CheckpointError(f"{path}: parameter {name} listed twice")
        seen.add(name)
        if name not in shapes:
            raise CheckpointError(
                f"{path}: manifest names unknown parameter {name}")
        if shape != shapes[name]:
            raise CheckpointError(
                f"{path}: {name} has shape {list(shape)}, model wants "
                f"{list(shapes[name])} (config/manifest mismatch)")
        if offset != cursor:
            raise CheckpointError(
                f"{path}: {name} at offset {offset}, expected {cursor}")
        cursor = offset + 4 * math.prod(shape)
        if cursor > len(payload):
            raise CheckpointError(f"{path}: truncated payload at {name}")
    # every entry is a distinct known name and there are no fewer of
    # them than the config needs: the manifest lists exactly its shapes
    if cursor != len(payload):
        raise CheckpointError(
            f"{path}: {len(payload) - cursor} trailing payload bytes")
    model = init_model(config, np.random.default_rng(0))
    params = dict(named_parameters(model))
    for entry in manifest:
        shape = tuple(entry["shape"])
        params[entry["name"]].data = np.frombuffer(
            payload, dtype="<f4", count=math.prod(shape),
            offset=entry["offset"]).astype(np.float64).reshape(shape)
    return model
