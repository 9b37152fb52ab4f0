"""Detection scoring (precision, recall, F0.5) and per-head, per-layer
attention summaries."""
from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .corpus import LABEL_ERR, LABEL_OK, LabeledCorpus, TokenizedSentence
# word_attention is not called here; the benchmark's tracer
# (perfbench/spans.py) wraps it as an attribute of this module
from .model import (  # noqa: F401
    Model, forward_batch, predict_word_probs, word_attention,
)
from .tensor import no_grad

# class indices; the error class is the positive one
CLASS_OK = 0
CLASS_ERR = 1

# sentences per forward in evaluate and attention_summary.  gedlab eval
# of a desk model on 1000 sentences (1 BLAS thread) took 1.40 s one
# sentence per forward and 0.34 s at 16, 32 or 64; the process peaked
# at 39.7 MB RSS one at a time, 41.1 at 16, 43.0 at 32 and 46.3 at 64.
# Beside perfbench's own checks, infer_eval's peak went 42.5 -> 43.0 MB
# at 16 but to 47.7 MB (+12%) at 64, past the benchmark's 10% bound
EVAL_BATCH = 16


def confusion_counts(predicted, gold) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) with the error label as the positive class."""
    if len(predicted) != len(gold):
        raise ValueError(
            f"{len(predicted)} predictions against {len(gold)} gold labels")
    tp = fp = fn = tn = 0
    for p, g in zip(predicted, gold):
        if p not in (LABEL_OK, LABEL_ERR) or g not in (LABEL_OK, LABEL_ERR):
            raise ValueError(f"labels must be c or i, got ({p!r}, {g!r})")
        if p == LABEL_ERR:
            if g == LABEL_ERR:
                tp += 1
            else:
                fp += 1
        elif g == LABEL_ERR:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def f_beta(precision: float, recall: float, beta: float = 0.5) -> float:
    """(1 + b^2) p r / (b^2 p + r); 0 when the denominator is 0."""
    if not 0.0 <= precision <= 1.0:
        raise ValueError(f"precision must be in [0, 1], got {precision}")
    if not 0.0 <= recall <= 1.0:
        raise ValueError(f"recall must be in [0, 1], got {recall}")
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    b2 = beta * beta
    denom = b2 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + b2) * precision * recall / denom


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f_half: float
    n_sentences: int
    n_tokens: int
    config_fingerprint: str
    seed: int | None

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "precision": self.precision, "recall": self.recall,
            "f_half": self.f_half, "n_sentences": self.n_sentences,
            "n_tokens": self.n_tokens,
            "config_fingerprint": self.config_fingerprint,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

def report_from_counts(tp: int, fp: int, fn: int, tn: int,
                       n_sentences: int, config_fingerprint: str = "",
                       seed: int | None = None) -> EvalReport:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return EvalReport(tp=tp, fp=fp, fn=fn, tn=tn, precision=precision,
                      recall=recall, f_half=f_beta(precision, recall, 0.5),
                      n_sentences=n_sentences, n_tokens=tp + fp + fn + tn,
                      config_fingerprint=config_fingerprint, seed=seed)


def predict_labels(model: Model, sub_ids, first_sub_index) -> list[str]:
    """Eval-mode labels for one sentence; a probability tie goes to the
    clean class (argmax picks the lowest index)."""
    with no_grad():
        probs, _ = predict_word_probs(model, sub_ids, first_sub_index)
    picks = np.argmax(probs.data, axis=1)
    return [LABEL_ERR if k == CLASS_ERR else LABEL_OK for k in picks]


def _length_sorted_batches(sentences: list[TokenizedSentence]):
    """Corpus indices in batches of EVAL_BATCH, by sub-token count with
    ties in corpus order, so each batch pads little."""
    order = sorted(range(len(sentences)),
                   key=lambda i: len(sentences[i].sub_ids))
    for start in range(0, len(order), EVAL_BATCH):
        yield order[start:start + EVAL_BATCH]


def evaluate(model: Model, corpus: LabeledCorpus,
             seed: int | None = None) -> EvalReport:
    """Corpus-wide counts first, then the metrics.  Eval mode, in
    length-sorted batches under no_grad; a probability tie goes to the
    clean class, as in predict_labels."""
    sentences = corpus.tokenized
    tp = fp = fn = tn = 0
    with no_grad():
        for batch in _length_sorted_batches(sentences):
            probs, _ = forward_batch(
                model, [sentences[i].sub_ids for i in batch],
                [sentences[i].first_sub_index for i in batch])
            flagged = np.argmax(probs.data, axis=1) == CLASS_ERR
            gold = np.array([lab == LABEL_ERR for i in batch
                             for lab in sentences[i].labels])
            tp += int(np.sum(flagged & gold))
            fp += int(np.sum(flagged & ~gold))
            fn += int(np.sum(~flagged & gold))
            tn += int(np.sum(~flagged & ~gold))
    return report_from_counts(tp, fp, fn, tn,
                              n_sentences=corpus.n_sentences,
                              config_fingerprint=model.config.fingerprint(),
                              seed=seed)


# -------------------------------------------------------------- attention

@dataclass
class AttentionSummary:
    """Mean depth-attention weight per (head, layer), averaged over all
    word positions of a corpus.  matrix[j, l] is head j+1, layer l+1."""
    matrix: np.ndarray
    n_tokens: int

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be [J, L], got {self.matrix.shape}")
        if self.n_tokens < 1:
            raise ValueError("summary needs at least one token")
        row_sums = self.matrix.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-6:
            raise ValueError(
                "mean attention rows must sum to 1 (eval-mode weights)")


def attention_summary(model: Model, corpus: LabeledCorpus) -> AttentionSummary:
    """Token-weighted mean of the depth-attention distributions, in
    length-sorted batches under no_grad.  Each sentence's weights are
    summed on their own and those sums added in corpus order, so the
    mean does not depend on how the corpus was batched."""
    if model.config.head_type != "mhmla":
        raise ValueError(
            f"head type {model.config.head_type!r} has no depth attention")
    sentences = corpus.tokenized
    sums = [None] * len(sentences)
    with no_grad():
        for batch in _length_sorted_batches(sentences):
            _, record = forward_batch(
                model, [sentences[i].sub_ids for i in batch],
                [sentences[i].first_sub_index for i in batch])
            start = 0
            for i in batch:
                stop = start + len(sentences[i].first_sub_index)
                sums[i] = record.weights[start:stop].sum(axis=0)
                start = stop
    total = np.zeros((model.config.layer_attn_heads, model.config.n_layers))
    for part in sums:
        total += part
    n = sum(len(t.first_sub_index) for t in sentences)
    if n == 0:
        raise ValueError("corpus has no word positions to average over")
    return AttentionSummary(matrix=total / n, n_tokens=n)


def summary_to_csv(summary: AttentionSummary) -> str:
    """Header "head,layer_1,...,layer_L"; one row per head, 6
    significant digits, head and layer numbering 1-based."""
    j_count, l_count = summary.matrix.shape
    out = io.StringIO()
    out.write("head," + ",".join(f"layer_{l + 1}" for l in range(l_count))
              + "\n")
    for j in range(j_count):
        cells = ",".join(f"{x:.6g}" for x in summary.matrix[j])
        out.write(f"{j + 1},{cells}\n")
    return out.getvalue()
