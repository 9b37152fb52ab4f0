"""The workloads: what each sets up and what one measured cycle runs.

Every input comes from gedlab's own generator (``gedlab gen`` then
``gedlab label``), seeded from the workload seed.  An operation is a
dict with a ``label``, either ``cli`` (a gedlab argument list) or
``build_corpus`` (a labeled file to tokenize), and a ``rate`` role:

- ``"words"``: its words and its time count toward ``words_per_s``;
- ``"time"``: only its time counts (a pipeline stage whose words the
  last stage already counts);
- ``None``: not part of the throughput.

An ``eval`` may carry ``min_f_half``, the lowest dev F0.5 its check
accepts.  See README.md for why each workload exists.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

# shapes at scale 1; the tests shrink them
TRAIN_PAIRS = 2000      # acceptance-criterion-6 corpus
DEV_PAIRS = 200
HELDOUT_PAIRS = 1000
INFER_TRAIN_PAIRS = 300  # the set-up checkpoint; see README.md
CORPUS_PAIRS = 20000
EPOCHS = 2              # the fewest that let a check see the loss fall
# train_desk's dev F0.5 was 0.33 or more on 20 seeds; a broken encoder,
# head or training step scores far lower
MIN_F_HALF = 0.2
ERROR_RATE = "0.5"
MAX_LEN = 32            # the CLI's desk default

NAMES = ("train_desk", "train_b64", "infer_eval", "infer_attn",
         "corpus_prep")


@dataclass
class Workload:
    name: str
    setup: list[dict]
    cycle: list[dict]


def _op(label: str, args: list, rate: str | None = None, **extra) -> dict:
    return {"label": label, "cli": [str(a) for a in args], "rate": rate,
            **extra}


def _corpus(work: str, stem: str, n: int, gen_seed: int) -> list[dict]:
    pairs = os.path.join(work, stem + ".pairs")
    return [_op("gen", ["gen", "--n", n, "--seed", gen_seed,
                        "--error-rate", ERROR_RATE, "--out", pairs]),
            _op("label", ["label", "--pairs", pairs,
                          "--out", os.path.join(work, stem + ".tsv")])]


def build(name: str, seed: int, work: str, scale: float = 1.0) -> Workload:
    """Workload `name` for `seed`, with its files under `work`."""
    def size(n):
        return max(8, round(n * scale))

    def path(stem):
        return os.path.join(work, stem)

    # distinct generator seeds per input, all fixed by the workload seed
    gen = {k: seed * 10 + k for k in range(1, 5)}
    if name in ("train_desk", "train_b64"):
        batch = [] if name == "train_desk" else ["--batch-size", 64]
        # 64 steps at B=64 do not yet flag errors, nor does a shrunken
        # corpus: the floor holds for train_desk at full size only
        floor = MIN_F_HALF if name == "train_desk" and scale == 1 else None
        setup = (_corpus(work, "train", size(TRAIN_PAIRS), gen[1])
                 + _corpus(work, "dev", size(DEV_PAIRS), gen[2]))
        cycle = [
            _op("train", ["train", "--corpus", path("train.tsv"),
                          "--seed", seed, "--epochs", EPOCHS, *batch,
                          "--out", path("model.ckpt")], rate="words"),
            _op("eval", ["eval", "--checkpoint", path("model.ckpt"),
                         "--vocab", path("model.ckpt.vocab"),
                         "--corpus", path("dev.tsv"), "--seed", seed,
                         "--out", path("dev.json")], min_f_half=floor),
        ]
    elif name in ("infer_eval", "infer_attn"):
        # one set-up for both.  INFER_TRAIN_PAIRS is not scaled: a
        # smaller vocabulary splits held-out words into characters, and
        # tokenize_sentence drops words past max_len
        setup = (_corpus(work, "train", INFER_TRAIN_PAIRS, gen[1])
                 + _corpus(work, "heldout", size(HELDOUT_PAIRS), gen[3])
                 + [_op("train", ["train", "--corpus", path("train.tsv"),
                                  "--seed", seed, "--epochs", EPOCHS,
                                  "--out", path("model.ckpt")])])
        model = ["--checkpoint", path("model.ckpt"),
                 "--vocab", path("model.ckpt.vocab"),
                 "--corpus", path("heldout.tsv")]
        if name == "infer_eval":
            cycle = [_op("eval", ["eval", *model, "--seed", seed,
                                  "--out", path("heldout.json")],
                         rate="words")]
        else:
            cycle = [_op("attn", ["attn", *model,
                                  "--out", path("heldout.csv")],
                         rate="words")]
    elif name == "corpus_prep":
        setup = []
        cycle = [dict(op, rate="time") for op in
                 _corpus(work, "big", size(CORPUS_PAIRS), gen[4])]
        cycle.append({"label": "build_corpus",
                      "build_corpus": path("big.tsv"), "max_len": MAX_LEN,
                      "rate": "words"})
    else:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(NAMES)}")
    return Workload(name=name, setup=setup, cycle=cycle)
