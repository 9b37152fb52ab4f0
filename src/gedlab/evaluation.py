"""Detection scoring (precision, recall, F0.5) and per-head, per-layer
attention summaries."""
from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import LABEL_ERR, LabeledCorpus, TokenizedSentence
# predict_word_probs and word_attention are not called here; the
# benchmark's tracer (perfbench/spans.py) wraps them as attributes of
# this module
from .model import (  # noqa: F401
    Model, forward_batch, predict_word_probs, word_attention,
)
from .tensor import no_grad

# class index of the error class, the positive one; clean is 0
CLASS_ERR = 1

# sentences per forward in evaluate and attention_summary.  gedlab eval
# of infer_eval's desk checkpoint on its 1000 held-out sentences (1 BLAS
# thread, CPU time, three interleaved runs) took 0.70-0.95 s one
# sentence per forward, 0.18-0.27 s at 8 and 0.15-0.18 s at 16, 32 or
# 64, with no trend past 16; the process peaked at 38.0 MB RSS one at a
# time, 38.3 at 16, 40.1 at 32 and 43.2 at 64: 16 is as fast as 64 and
# peaks 4.9 MB lower
EVAL_BATCH = 16


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
        return asdict(self)

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


def _corpus_forwards(model: Model, sentences: list[TokenizedSentence]):
    """One eval forward under no_grad per batch of EVAL_BATCH corpus
    indices, taken by sub-token count with ties in corpus order so each
    batch pads little.  Yields (batch indices, logits, record); no_grad
    does not span a yield."""
    order = sorted(range(len(sentences)),
                   key=lambda i: len(sentences[i].sub_ids))
    for start in range(0, len(order), EVAL_BATCH):
        batch = order[start:start + EVAL_BATCH]
        with no_grad():
            logits, record = forward_batch(
                model, [sentences[i].sub_ids for i in batch],
                [sentences[i].first_sub_index for i in batch])
        yield batch, logits, record


def evaluate(model: Model, corpus: LabeledCorpus,
             seed: int | None = None) -> EvalReport:
    """Corpus-wide counts first, then the metrics.  Eval forwards, in
    length-sorted batches under no_grad, each word flagged by the argmax
    of its logits; a tie goes to the clean class (argmax picks the
    lowest index).  A corpus without words is a ValueError: it has
    nothing to score."""
    sentences = corpus.tokenized
    if not any(s.first_sub_index for s in sentences):
        raise ValueError("corpus has no word positions to score")
    tp = fp = fn = tn = 0
    for batch, logits, _ in _corpus_forwards(model, sentences):
        flagged = np.argmax(logits.data, axis=1) == CLASS_ERR
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
        if not np.abs(row_sums - 1.0).max() <= 1e-6:  # NaN fails too
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
    for batch, _, record in _corpus_forwards(model, sentences):
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
