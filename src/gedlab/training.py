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
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .corpus import LabeledCorpus, TokenizedSentence
# encode_batch and batch_word_rows are not called here; the benchmark
# (perfbench/) binds them as attributes of this module
from .encoder import ModelConfig, check_field_types, encode_batch  # noqa: F401
from .model import (  # noqa: F401
    Model, alloc_model, batch_word_rows, check_views, forward_batch,
    init_model, label_targets, parameter_shapes,
)
from .tensor import Tensor, backward, cross_entropy, reset_graph

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


# -------------------------------------------------------------------- Adam

# adam_step updates the buffers in blocks of this many entries.  Its
# widest phase touches five block arrays (the moments, the parameters
# and two scratch blocks): 5 * 8 * ADAM_BLOCK bytes = 1.25 MiB, which
# stays in a 2 MiB per-core L2 cache, and the scratch is two blocks, not
# a second full-size buffer.
ADAM_BLOCK = 32768


class AdamState:
    """Adam's step count and moments over a model's flat float64
    parameter buffer.  `m`, `v` and the gradient buffer `grad` share its
    layout, so one vectorized update covers every tensor.

    named_params are the parameters, views of flat in its order (as
    check_views has them); `named` keeps them as a list.  Each one's
    gradient home becomes its view of `grad`, so backward accumulates
    straight into the buffer that adam_step reads; `homes` lists those
    views in order.  The homes stay on the parameters until the caller
    clears them (train() does before it returns).  `views` are the
    parameter arrays the last check_views passed."""

    def __init__(self, flat: np.ndarray, named_params):
        self.t, self.flat = 0, flat
        self.m, self.v, self.grad = (np.zeros_like(flat) for _ in range(3))
        self.named = list(named_params)
        self.views = check_views(self.named, flat)
        self.homes, start = [], 0
        for (_, p), a in zip(self.named, self.views):
            p._grad_home = self.grad[start:start + a.size].reshape(a.shape)
            self.homes.append(p._grad_home)
            start += a.size


def _first_nonfinite(params: list, joined: np.ndarray) -> str:
    """Name of the first parameter whose slice of joined is not finite."""
    start = 0
    for name, p in params:
        stop = start + p.data.size
        if not np.isfinite(joined[start:stop]).all():
            return name
        start = stop
    raise AssertionError("every entry is finite")


def adam_step(state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of every parameter of state.named,
    in place, with the gradient backward left in state.grad.

    A parameter whose grad is not its home there (no backward reached
    it, or its grad was set by hand) raises ValueError naming it, and a
    non-finite gradient raises FloatingPointError naming the first bad
    parameter, both before anything, t included, is written; a
    non-finite value after the update raises FloatingPointError too,
    naming the parameter.  The update runs ADAM_BLOCK entries at a time
    and leaves state.grad, and so every home, holding this step's
    gradient.  The parameters must still be views of state.flat in its
    order (check_views): a rebound p.data raises ValueError naming it."""
    params = state.named
    state.views = check_views(params, state.flat, state.views)
    for (name, p), home in zip(params, state.homes):
        if p.grad is not home:
            raise ValueError(f"{name} has no gradient in the state's buffer: "
                             f"no backward reached it, or its grad was set "
                             f"by hand")
    flat, m, v, g = state.flat, state.m, state.v, state.grad
    t = state.t + 1
    if not np.isfinite(g).all():
        raise FloatingPointError(
            f"non-finite gradient in {_first_nonfinite(params, g)} at step {t}")
    state.t = t
    # per entry, in this order: m = b1*m + (1-b1)*g,
    # v = b2*v + ((1-b2)*g)*g, then
    # p -= (lr * m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    s_block, u_block = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for i in range(0, flat.size, ADAM_BLOCK):
        j = min(i + ADAM_BLOCK, flat.size)
        gb, mb, vb = g[i:j], m[i:j], v[i:j]
        s, u = s_block[:j - i], u_block[:j - i]
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=s)
        mb += s
        vb *= b2
        np.multiply(gb, 1.0 - b2, out=s)
        s *= gb
        vb += s
        np.divide(vb, c2, out=s)
        np.sqrt(s, out=s)
        s += config.adam_eps
        np.divide(mb, c1, out=u)
        u *= config.learning_rate
        u /= s
        flat[i:j] -= u
    if not np.isfinite(flat).all():
        raise FloatingPointError(
            f"non-finite value in {_first_nonfinite(params, flat)} at step {t}")


# -------------------------------------------------------------- the loss

def batch_loss(model: Model, batch: Sequence[TokenizedSentence],
               rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy over the words of a batch; with dropout when
    given an rng."""
    logits, _ = forward_batch(model, [t.sub_ids for t in batch],
                              [t.first_sub_index for t in batch], rng)
    return cross_entropy(logits,
                         label_targets([lab for t in batch
                                        for lab in t.labels]))


# ---------------------------------------------------------------- the loop

def _train_step(model: Model, state: AdamState,
                batch: Sequence[TokenizedSentence], config: TrainConfig,
                rng: np.random.Generator) -> float:
    """One forward, backward and Adam update on a batch; returns the
    batch's mean loss.

    The loss Tensor must not outlive its backward: every op's backward
    closure holds its input Tensors, so the loss keeps the whole graph
    of the step reachable after reset_graph() has emptied the tape.
    The step keeps the loss as a float and lets the graph go, tape and
    loss, before Adam runs, so Adam's scratch never adds to it."""
    reset_graph()
    loss = batch_loss(model, batch, rng)
    backward(loss)
    value = loss.item()
    del loss
    reset_graph()
    adam_step(state, config)
    for _, p in state.named:
        p.zero_grad()
    return value


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
    state = AdamState(model.flat, model.named)
    losses: list[float] = []
    for epoch in range(train_config.epochs):
        order = rng.permutation(len(sentences))
        loss_sum = 0.0
        word_count = 0
        for start in range(0, len(order), train_config.batch_size):
            batch = [sentences[i] for i in order[start:start + train_config.batch_size]]
            n_words = sum(len(s.words) for s in batch)
            loss_sum += _train_step(model, state, batch, train_config,
                                    rng) * n_words
            word_count += n_words
        losses.append(loss_sum / word_count)
        log.info("epoch %d/%d  mean loss %.6f", epoch + 1,
                 train_config.epochs, losses[-1])
    # only the loop accumulates into the state's buffer: a later
    # backward on the returned model leaves grads of its own
    for _, p in state.named:
        p._grad_home = None
    # snap parameters onto the float32 grid checkpoints use, so the
    # returned model predicts bit-identically to its saved-and-reloaded
    # copy
    model.flat[...] = model.flat.astype("<f4")
    return TrainResult(model=model, epoch_losses=losses, n_steps=state.t)


# -------------------------------------------------------------- checkpoints

def checkpoint_bytes(model: Model) -> bytes:
    """Serialized form: magic, little-endian u32 header length, a
    canonical JSON header (config plus a name/shape/offset manifest in
    Model.named order), then the parameter buffer as little-endian
    float32."""
    check_views(model.named, model.flat)
    manifest, offset = [], 0
    for name, p in model.named:
        manifest.append({"name": name, "shape": list(p.shape),
                         "offset": offset})
        offset += 4 * p.data.size
    header = {"config": model.config.to_dict(), "manifest": manifest}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(head)), head,
                     model.flat.astype("<f4").data])


def save_checkpoint(model: Model, path) -> None:
    blob = checkpoint_bytes(model)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> Model:
    """Rebuild a model from disk.  Parameters come back as float64
    copies of the stored float32 values, so re-saving is byte-identical.

    Nothing is allocated until the manifest matches the config's
    parameter shapes name by name, in Model.named order, and the
    payload holds exactly 4 bytes per float those shapes need, so a
    header cannot ask for more memory than the file's own size accounts
    for.  A NaN or infinite parameter is a CheckpointError naming the
    first such parameter."""
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
    except (ValueError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from exc
    payload = memoryview(blob)[fixed + head_len:]     # no copy
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
    for entry, want in zip(manifest, shapes):
        if entry["name"] != want:
            raise CheckpointError(
                f"{path}: manifest lists {entry['name']} where the model "
                f"wants {want} (out of order)")
    model = alloc_model(config)
    model.flat[...] = np.frombuffer(payload, dtype="<f4")
    del payload, blob       # copied: freed before the check's bool mask
    if not np.isfinite(model.flat).all():
        raise CheckpointError(f"{path}: non-finite value in "
                              f"{_first_nonfinite(model.named, model.flat)}")
    return model
