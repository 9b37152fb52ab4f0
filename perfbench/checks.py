"""Output checks, run in the benchmark's child process after each
operation and outside its timing.

Each check reads what the command wrote: the ``.manifest.json`` run
record the CLI writes (losses, eval reports, checksums) and the output
files themselves.  ``eval`` and ``attn`` outputs are also recomputed
through the batched encoder of training (``encode_batch``), whose result
on real rows must equal the one-sentence forward that ``eval`` and
``attn`` use, so a fault in either path shows as a difference.

``inspect`` returns the failures it found, a digest of the outputs
(compared across cycles and between traced and untraced runs) and the
amount of work the operation did.

The gedlab functions are bound here at import, before the tracer wraps
anything, and the child pauses the tracer while checks run, so checks
never add spans.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from gedlab.corpus import (
    LABEL_ERR, build_corpus, read_corpus_sentences, read_pair_file,
    read_vocab_file, write_corpus,
)
from gedlab.encoder import encode_batch
from gedlab.evaluation import CLASS_ERR
from gedlab.heads import layer_attention_weights
from gedlab.model import head_forward, predict_word_probs
from gedlab.tensor import gather_rows, no_grad
from gedlab.training import batch_word_rows, checkpoint_bytes, load_checkpoint

CSV_TOLERANCE = 1e-5      # the attention CSV keeps 6 significant digits
PROB_TOLERANCE = 1e-6     # the two paths agree to about 1e-16 in float64
REFERENCE_BATCH = 8       # sentences per batched reference forward
SPOT_SENTENCES = 16       # sentences also scored one at a time


def _flag(args: list[str], name: str) -> str:
    return args[args.index(name) + 1]


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _manifest(path: str) -> dict:
    with open(f"{path}.manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def _corpus_words(path: str) -> tuple[int, int]:
    sentences = read_corpus_sentences(path)
    return len(sentences), sum(len(s.words) for s in sentences)


def _gen(op, failures):
    args = op["cli"]
    pairs = read_pair_file(_flag(args, "--out"))
    if len(pairs) != int(_flag(args, "--n")):
        failures.append(f"gen wrote {len(pairs)} pairs, asked for "
                        f"{_flag(args, '--n')}")
    digest = _manifest(_flag(args, "--out"))["checksums"]
    return digest, len(pairs), sum(len(p.source) for p in pairs)


def _label(op, failures):
    args = op["cli"]
    out = _flag(args, "--out")
    pairs = read_pair_file(_flag(args, "--pairs"))
    sentences = read_corpus_sentences(out)
    copy = out + ".reread"
    write_corpus(sentences, copy)
    if _read_bytes(copy) != _read_bytes(out):
        failures.append(f"{out} does not re-read identically")
    if len(sentences) != len(pairs):
        failures.append(f"{len(sentences)} labeled sentences for "
                        f"{len(pairs)} pairs")
    for k, (s, p) in enumerate(zip(sentences, pairs)):
        if s.words != p.source or len(s.labels) != len(p.source):
            failures.append(f"sentence {k + 1}: labels do not match the "
                            f"source length")
            break
    digest = _manifest(out)["checksums"]
    return digest, len(sentences), sum(len(s.words) for s in sentences)


def _train(op, failures):
    args = op["cli"]
    out = _flag(args, "--out")
    manifest = _manifest(out)
    losses = manifest["metrics"]["epoch_losses"]
    if not all(math.isfinite(x) for x in losses):
        failures.append(f"non-finite epoch loss in {losses}")
    elif len(losses) < 2 or not losses[-1] < losses[0]:
        failures.append(f"last epoch loss is not below the first: {losses}")
    if checkpoint_bytes(load_checkpoint(out)) != _read_bytes(out):
        failures.append(f"{out}: re-saving the loaded checkpoint differs")
    n_sentences, n_words = _corpus_words(_flag(args, "--corpus"))
    epochs = len(losses)
    digest = {"epoch_losses": losses, "checksums": manifest["checksums"]}
    return digest, n_sentences * epochs, n_words * epochs


def _model_corpus(args):
    """The checkpoint, and the corpus tokenized as the CLI does it."""
    model = load_checkpoint(_flag(args, "--checkpoint"))
    vocab = read_vocab_file(_flag(args, "--vocab"))
    corpus = build_corpus(read_corpus_sentences(_flag(args, "--corpus")),
                          vocab=vocab, max_len=model.config.max_len)
    return model, corpus.tokenized


def _batched_word_states(model, tokenized):
    """Every layer's word rows for the whole corpus, through
    encode_batch, REFERENCE_BATCH sentences at a time."""
    for i in range(0, len(tokenized), REFERENCE_BATCH):
        batch = tokenized[i:i + REFERENCE_BATCH]
        states, _ = encode_batch([t.sub_ids for t in batch], model.encoder,
                                 model.config)
        rows, _ = batch_word_rows(batch, states[0].shape[0] // len(batch))
        yield [gather_rows(s, rows) for s in states]


def _eval_reference(args, report, failures):
    """The report's counts against batched probabilities, and the first
    SPOT_SENTENCES sentences' one-sentence probabilities against the
    batched ones."""
    model, tokenized = _model_corpus(args)
    with no_grad():
        probs = np.concatenate([head_forward(states, model)[0].data
                                for states in
                                _batched_word_states(model, tokenized)])
        spot = np.concatenate([
            predict_word_probs(model, t.sub_ids, t.first_sub_index)[0].data
            for t in tokenized[:SPOT_SENTENCES]])
    gap = float(np.abs(probs[:len(spot)] - spot).max())
    if not gap <= PROB_TOLERANCE:
        failures.append(f"eval: one-sentence and batched probabilities "
                        f"differ by {gap:.3g}")
    flagged = probs.argmax(axis=1) == CLASS_ERR
    gold = np.array([lab == LABEL_ERR for t in tokenized for lab in t.labels])
    counts = {"tp": flagged & gold, "fp": flagged & ~gold,
              "fn": ~flagged & gold, "tn": ~flagged & ~gold}
    counts = {k: int(v.sum()) for k, v in counts.items()}
    reported = {k: report[k] for k in counts}
    if reported != counts:
        failures.append(f"eval counts {reported}, batched reference "
                        f"{counts}")


def _eval(op, failures):
    args = op["cli"]
    report = _manifest(_flag(args, "--out"))["metrics"]
    n_sentences, n_words = _corpus_words(_flag(args, "--corpus"))
    if report["n_tokens"] != n_words:
        failures.append(f"eval scored {report['n_tokens']} tokens, the "
                        f"corpus holds {n_words} words")
    if report["n_sentences"] != n_sentences:
        failures.append(f"eval scored {report['n_sentences']} sentences "
                        f"of {n_sentences}")
    for key in ("precision", "recall", "f_half"):
        if not 0.0 <= report[key] <= 1.0:
            failures.append(f"eval {key} = {report[key]} is outside [0, 1]")
    floor = op.get("min_f_half")
    if floor is not None and not report["f_half"] >= floor:
        failures.append(f"eval F0.5 = {report['f_half']:.4f} is below the "
                        f"floor {floor}")
    _eval_reference(args, report, failures)
    return report, n_sentences, n_words


def _attn(op, failures):
    args = op["cli"]
    out = _flag(args, "--out")
    manifest = _manifest(out)
    n_sentences, n_words = _corpus_words(_flag(args, "--corpus"))
    if manifest["metrics"]["n_tokens"] != n_words:
        failures.append(f"attn averaged {manifest['metrics']['n_tokens']} "
                        f"tokens, the corpus holds {n_words} words")
    with open(out, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    if not rows:
        failures.append(f"{out} holds no attention rows")
        return manifest["checksums"], n_sentences, n_words
    matrix = np.array([[float(x) for x in row[1:]] for row in rows])
    for head, total in enumerate(matrix.sum(axis=1), start=1):
        if abs(total - 1.0) > CSV_TOLERANCE:
            failures.append(f"attention row of head {head} sums to {total}")
    model, tokenized = _model_corpus(args)
    with no_grad():
        weights = np.concatenate([
            layer_attention_weights(states, model.head, model.config).weights
            for states in _batched_word_states(model, tokenized)])
    reference = weights.mean(axis=0)
    if matrix.shape != reference.shape:
        failures.append(f"{out} holds a {matrix.shape} summary, the batched "
                        f"reference is {reference.shape}")
    elif not np.abs(matrix - reference).max() <= CSV_TOLERANCE:
        failures.append(f"{out} differs from the batched reference by "
                        f"{np.abs(matrix - reference).max():.3g}")
    return manifest["checksums"], n_sentences, n_words


def _build_corpus(op, corpus, failures):
    n_sentences, n_words = _corpus_words(op["build_corpus"])
    if corpus.n_sentences != n_sentences or corpus.n_words != n_words:
        failures.append(
            f"build_corpus kept {corpus.n_sentences} sentences / "
            f"{corpus.n_words} words of {n_sentences} / {n_words}")
    ids = hashlib.sha256()
    for t in corpus.tokenized:
        ids.update(repr((t.sub_ids, t.first_sub_index)).encode())
    digest = {"n_pieces": corpus.vocab.n_pieces, "sub_ids": ids.hexdigest()}
    return digest, n_sentences, n_words


CLI_CHECKS = {"gen": _gen, "label": _label, "train": _train, "eval": _eval,
              "attn": _attn}


def inspect(op: dict, value) -> tuple[list[str], object, int, int]:
    """(failures, digest, sentences, words) of an operation that
    returned.  value is the CLI exit code, or the corpus build_corpus
    made."""
    failures: list[str] = []
    if "cli" in op:
        if value != 0:
            return [f"exit code {value}"], None, 0, 0
        digest, n_sentences, n_words = CLI_CHECKS[op["cli"][0]](op, failures)
    else:
        digest, n_sentences, n_words = _build_corpus(op, value, failures)
    return failures, digest, n_sentences, n_words
