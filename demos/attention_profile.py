# Where does the classifier look?  Each head of the depth-attention
# layer spreads per-token weight over the encoder's layers; averaging
# those weights over a corpus profiles which depths each head reads.
# Run from the repo root:
#
#   python demos/attention_profile.py

from gedlab import (
    ModelConfig, TrainConfig, attention_summary, build_corpus,
    generate_synthetic_pairs, pairs_to_labeled, summary_to_csv, train,
    word_attention,
)

pairs = generate_synthetic_pairs(400, seed=7, error_rate=0.5)
corpus = build_corpus(pairs_to_labeled(pairs), max_len=32)
config = ModelConfig(n_layers=4, hidden=32, self_attn_heads=2, ffn_dim=64,
                     layer_attn_heads=4, key_dim=8,
                     vocab_size=corpus.vocab.n_pieces, max_len=32,
                     dropout=0.0, attn_dropout=0.0)
result = train(corpus, config,
               TrainConfig(learning_rate=1e-3, batch_size=16, epochs=4,
                           seed=0))

summary = attention_summary(result.model, corpus)
print("\ntoken-weighted mean weight per (head, layer) over",
      summary.n_tokens, "tokens:\n")
print(summary_to_csv(summary))

for j in range(config.layer_attn_heads):
    bars = "  ".join("L%d %s" % (l + 1, "*" * int(round(20 * w)))
                     for l, w in enumerate(summary.matrix[j]))
    print("head %d:  %s" % (j + 1, bars))

# the same weights are available per token
sent = corpus.tokenized[0]
record = word_attention(result.model, sent.sub_ids, sent.first_sub_index)
print("\nper-token weights of head 1 (rows = words of %r):"
      % " ".join(sent.words))
for word, weights in zip(sent.words, record.weights[:, 0, :]):
    print("  %-10s" % word, " ".join("%.3f" % w for w in weights))
