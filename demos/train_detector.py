# Train a small detector, score it, save it, reload it.  About half a
# minute on one core.  Run from the repo root:
#
#   python demos/train_detector.py

import tempfile
from pathlib import Path

from gedlab import (
    ModelConfig, TrainConfig, build_corpus,evaluate, generate_synthetic_pairs,
    load_checkpoint, pairs_to_labeled, predict_labels, save_checkpoint, train,
)

train_pairs = generate_synthetic_pairs(800, seed=100, error_rate=0.5)
corpus = build_corpus(pairs_to_labeled(train_pairs), max_len=32)
dev_pairs = generate_synthetic_pairs(100, seed=101, error_rate=0.5)
dev = build_corpus(pairs_to_labeled(dev_pairs), vocab=corpus.vocab,
                   max_len=32)
print("train:", corpus.n_sentences, "sentences  dev:", dev.n_sentences)

config = ModelConfig(n_layers=4, hidden=64, self_attn_heads=4, ffn_dim=128,
                     layer_attn_heads=4, key_dim=16,
                     vocab_size=corpus.vocab.n_pieces, max_len=32,
                     dropout=0.0, attn_dropout=0.0)
schedule = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=8, seed=1)
result = train(corpus, config, schedule)

print("\nloss per epoch:")
for i, loss in enumerate(result.epoch_losses, start=1):
    print("  %2d  %.4f  %s" % (i, loss, "#" * int(60 * loss)))

report = evaluate(result.model, dev, seed=schedule.seed)
print("\ndev precision %.3f  recall %.3f  F0.5 %.3f  (%d tokens)"
      % (report.precision, report.recall, report.f_half, report.n_tokens))

# checkpoints round-trip exactly
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "detector.ckpt"
    save_checkpoint(result.model, path)
    print("\ncheckpoint:", path.stat().st_size, "bytes")
    model = load_checkpoint(path)

sent = dev.tokenized[0]
flags = predict_labels(model, sent.sub_ids, sent.first_sub_index)
print("\nreloaded model on one dev sentence:")
for word, gold, hyp in zip(sent.words, sent.labels, flags):
    mark = "" if gold == hyp else "   <- got %r" % hyp
    print("  %-12s %s%s" % (word, gold, mark))
