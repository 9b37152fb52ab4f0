"""gedlab: a sequence-labeling laboratory.

A miniature transformer encoder, a multi-head attention head that mixes
the encoder's layers per token, synthetic error-injected corpora to
train on, and the gradient/equivalence checks that keep it honest.
"""

from .corpus import (
    LabeledCorpus, LabeledSentence, SentencePair, Vocabulary, align_labels,
    build_corpus, dp_align_label, generate_synthetic_pairs, pairs_to_labeled,
    write_corpus,
)
from .encoder import ModelConfig
from .evaluation import (
    EvalReport, attention_summary, evaluate, f_beta, summary_to_csv,
)
from .model import Model, init_model, predict_word_probs, word_attention
from .tensor import Tensor, backward, finite_diff_check, no_grad, reset_graph
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

__all__ = [
    "EvalReport", "LabeledCorpus", "LabeledSentence", "Model",
    "ModelConfig", "SentencePair", "Tensor", "TrainConfig", "Vocabulary",
    "align_labels", "attention_summary", "backward", "build_corpus",
    "dp_align_label", "evaluate", "f_beta", "finite_diff_check",
    "generate_synthetic_pairs", "init_model", "load_checkpoint", "no_grad",
    "pairs_to_labeled", "predict_word_probs", "reset_graph",
    "save_checkpoint", "summary_to_csv", "train", "word_attention",
    "write_corpus",
]
__version__ = "0.1.0"
