"""Acceptance gate: one test per shipping criterion, in order; `pytest
-v` prints one pass/fail line for each.

Scores of the reference systems are frozen here on the percent scale;
everything else is property-based at desk scale with pinned seeds and
tolerances.
"""
import copy
import json
import time

import numpy as np
import pytest
from oracles import forced_depth_params, oracle_labels, random_pair

from gedlab.cli import main, random_probe_batch
from gedlab.corpus import (
    PAD_ID, build_corpus, dp_align_label, generate_synthetic_pairs,
    pairs_to_labeled, read_corpus_sentences, write_corpus,
)
from gedlab.encoder import ModelConfig, encode, init_encoder_params
from gedlab.evaluation import evaluate, f_beta, report_from_counts
from gedlab.heads import (
    AvglHeadParams, FinalHeadParams, avgl_forward, final_layer_forward,
    init_head_params, mhmla_forward,
)
from gedlab.model import (
    init_model, named_parameters, predict_word_probs, word_attention,
)
from gedlab.tensor import Tensor, finite_diff_check, no_grad, reset_graph
from gedlab.training import (
    TrainConfig, batch_loss, checkpoint_bytes, load_checkpoint,
    save_checkpoint, train,
)

# Published error-detection results on FCE, CoNLL14-1, CoNLL14-2 and
# JFLEG: (precision, recall, F0.5) per dataset, percent scale, five-run
# averages.  The F column of these rows follows from the P and R
# columns to within one rounding unit.
DETECTION_SCORES = {
    "encoder_scratch": [(48.85, 11.30, 29.34), (11.45, 7.80, 10.47),
                        (18.24, 9.31, 15.30), (58.85, 13.22, 34.81)],
    "encoder_pretrained": [(69.80, 37.37, 59.47), (34.08, 33.56, 33.97),
                           (46.01, 33.89, 42.93), (78.06, 36.28, 63.45)],
    "depth_average": [(68.09, 41.14, 60.20), (34.97, 32.02, 34.33),
                      (45.33, 35.27, 42.88), (77.35, 37.05, 63.52)],
    "depth_attention": [(68.87, 43.45, 61.65), (35.74, 33.50, 35.26),
                        (46.45, 35.47, 43.74), (77.74, 38.85, 64.77)],
}
# Rows quoted from other systems' reports (Bi-LSTM detectors; the
# fourth dataset is missing where those reports skip it).  Their F
# column was evidently computed before rounding P and R, so it does
# NOT recompute within 0.01; frozen here to document that drift.
QUOTED_SCORES = {
    "lstm_lm_multitask": [(58.88, 28.92, 48.48), (17.68, 19.07, 17.86),
                          (25.22, 19.25, 23.62)],
    "lstm_joint_labeling": [(65.53, 28.61, 52.07), (25.14, 15.22, 22.14),
                            (37.72, 16.19, 29.65), (72.53, 25.04, 52.52)],
    "lstm_artificial_data": [(60.67, 28.08, 49.11), (23.28, 18.01, 21.87),
                             (35.28, 19.42, 30.13)],
}
# Depth-attention F0.5 from the head-count study at 12 heads; the same
# runs as the depth_attention row above, so they recompute from its
# (P, R) pairs.
SWEEP_TWELVE_HEADS_F = (61.65, 35.26, 43.74, 64.77)

DESK = dict(n_layers=4, hidden=64, self_attn_heads=4, ffn_dim=128,
            layer_attn_heads=4, key_dim=16, max_len=32,
            dropout=0.0, attn_dropout=0.0, head_type="mhmla")


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


def desk_corpora():
    pairs = generate_synthetic_pairs(2000, seed=100, error_rate=0.5)
    corpus = build_corpus(pairs_to_labeled(pairs), max_len=32)
    dev_pairs = generate_synthetic_pairs(200, seed=101, error_rate=0.5)
    dev = build_corpus(pairs_to_labeled(dev_pairs), vocab=corpus.vocab,
                       max_len=32)
    return corpus, dev


def percent_f(p: float, r: float) -> float:
    return 100.0 * f_beta(p / 100.0, r / 100.0)


def test_metric_arithmetic_reproduces_published_scores():
    started = time.monotonic()
    for rows in DETECTION_SCORES.values():
        for p, r, f in rows:
            assert abs(percent_f(p, r) - f) <= 0.01
    for rows in QUOTED_SCORES.values():
        for p, r, f in rows:
            assert abs(percent_f(p, r) - f) > 0.01
    for (p, r, _), f12 in zip(DETECTION_SCORES["depth_attention"],
                              SWEEP_TWELVE_HEADS_F):
        assert abs(percent_f(p, r) - f12) <= 0.01
    assert time.monotonic() - started < 1.0


def test_gradient_check_full_model():
    started = time.monotonic()
    config = ModelConfig(n_layers=2, hidden=8, self_attn_heads=2,
                         ffn_dim=16, layer_attn_heads=2, vocab_size=20,
                         max_len=10, dropout=0.0, attn_dropout=0.0)
    rng = np.random.default_rng(5)
    model = init_model(config, rng, init_std=0.5)
    batch = random_probe_batch(config, 2, rng)
    report = finite_diff_check(lambda: batch_loss(model, batch),
                               list(named_parameters(model)),
                               eps=1e-5, tol=1e-4)
    assert report.passed, (report.worst_param, report.max_rel_err)
    assert report.max_rel_err < 1e-4
    assert time.monotonic() - started < 30.0


def test_attention_weights_normalized():
    config = ModelConfig(n_layers=3, hidden=8, self_attn_heads=2,
                         ffn_dim=16, layer_attn_heads=2, vocab_size=30,
                         max_len=12, dropout=0.0, attn_dropout=0.0)
    rng = np.random.default_rng(17)
    model = init_model(config, rng, init_std=0.5)
    for _ in range(100):
        n = int(rng.integers(2, config.max_len + 1))
        ids = rng.integers(4, config.vocab_size, size=n).tolist()
        words = sorted(rng.choice(n, size=max(1, n // 2),
                                  replace=False).tolist())
        record = word_attention(model, ids, words)
        assert np.all(record.weights >= 0.0)
        assert np.abs(record.weights.sum(axis=2) - 1.0).max() < 1e-9


def test_reduction_equivalences():
    cfg = ModelConfig(n_layers=3, hidden=8, self_attn_heads=2, ffn_dim=16,
                      layer_attn_heads=2, vocab_size=20, max_len=12,
                      dropout=0.0, attn_dropout=0.0)
    rng = np.random.default_rng(2024)
    params = init_head_params(cfg, rng, init_std=0.5)
    states = [Tensor(rng.normal(size=(5, cfg.hidden)))
              for _ in range(cfg.n_layers + 1)]
    n, J, L = 5, cfg.layer_attn_heads, cfg.n_layers

    # (a) all weight on the last layer = one composed linear readout
    one_hot = np.zeros((n, J, L))
    one_hot[:, :, L - 1] = 1.0
    with no_grad():
        forced, record = mhmla_forward(
            states, forced_depth_params(params, keep_layer=L - 1), cfg)
    assert np.array_equal(record.weights, one_hot)
    w_cat = np.concatenate([params.w_v[L - 1][j].data for j in range(J)],
                           axis=1)
    b_cat = np.concatenate([params.b_v[L - 1][j].data for j in range(J)])
    composed = FinalHeadParams(
        w_out=Tensor(w_cat @ params.w_out.data),
        b_out=Tensor(b_cat @ params.w_out.data + params.b_out.data))
    with no_grad():
        direct = final_layer_forward(
            states, composed, ModelConfig(
                n_layers=3, hidden=8, self_attn_heads=2, ffn_dim=16,
                vocab_size=20, max_len=12, dropout=0.0, attn_dropout=0.0,
                head_type="final"))
    assert np.abs(forced.data - direct.data).max() < 1e-10

    # (b) uniform weights with one head = plain layer averaging
    cfg1 = ModelConfig(n_layers=3, hidden=8, self_attn_heads=2, ffn_dim=16,
                       layer_attn_heads=1, vocab_size=20, max_len=12,
                       dropout=0.0, attn_dropout=0.0)
    params1 = init_head_params(cfg1, rng, init_std=0.5)
    uniform = np.full((n, 1, L), 1.0 / L)
    with no_grad():
        forced1, record1 = mhmla_forward(states, forced_depth_params(params1),
                                         cfg1)
    assert np.array_equal(record1.weights, uniform)
    copied = AvglHeadParams(
        w_proj=[params1.w_v[l][0] for l in range(L)],
        b_proj=[params1.b_v[l][0] for l in range(L)],
        w_out=params1.w_out, b_out=params1.b_out)
    with no_grad():
        direct1 = avgl_forward(
            states, copied, ModelConfig(
                n_layers=3, hidden=8, self_attn_heads=2, ffn_dim=16,
                vocab_size=20, max_len=12, dropout=0.0, attn_dropout=0.0,
                head_type="avgl"))
    assert np.abs(forced1.data - direct1.data).max() < 1e-12

    # (c) identical layer states + tied values: scores cannot matter
    tied = copy.deepcopy(params)
    for l in range(1, L):
        for j in range(J):
            tied.w_v[l][j].data = tied.w_v[0][j].data.copy()
            tied.b_v[l][j].data = tied.b_v[0][j].data.copy()
    h = Tensor(rng.normal(size=(n, cfg.hidden)))
    same_states = [h] * (L + 1)
    rescored = copy.deepcopy(tied)
    for l in range(L):
        for j in range(J):
            rescored.w_a[l][j].data = rng.normal(size=(cfg.key_dim, 1)) * 3
            rescored.b_a[l][j].data = rng.normal(size=1)
    with no_grad():
        out_a, _ = mhmla_forward(same_states, tied, cfg)
        out_b, _ = mhmla_forward(same_states, rescored, cfg)
    assert np.abs(out_a.data - out_b.data).max() < 1e-12


def test_labeler_matches_exhaustive_enumeration():
    started = time.monotonic()
    rng = np.random.default_rng(424242)
    checked = 0
    for alphabet in ("ab", "abcd"):
        for _ in range(600):
            src, dst = random_pair(rng, alphabet=alphabet, max_len=6)
            assert dp_align_label(src, dst) == oracle_labels(src, dst), \
                (src, dst)
            checked += 1
    assert checked >= 1000
    assert time.monotonic() - started < 60.0


def test_desk_scale_learning_three_seeds():
    corpus, dev = desk_corpora()
    model_config = ModelConfig(vocab_size=corpus.vocab.n_pieces, **DESK)
    # the all-error-free baseline predicts no positives and scores zero
    n_err = sum(s.labels.count("i") for s in dev.sentences)
    n_ok = dev.n_words - n_err
    assert report_from_counts(0, 0, n_err, n_ok,
                              n_sentences=dev.n_sentences).f_half == 0.0
    for seed in (1, 2, 3):
        started = time.monotonic()
        train_config = TrainConfig(learning_rate=1e-3, batch_size=16,
                                   epochs=10, seed=seed)
        result = train(corpus, model_config, train_config)
        assert result.epoch_losses[-1] < 0.5 * result.epoch_losses[0], \
            (seed, result.epoch_losses)
        report = evaluate(result.model, dev, seed=seed)
        assert report.f_half >= 0.70, (seed, report.to_dict())
        assert time.monotonic() - started < 600.0


def test_head_sweep_protocol(tmp_path):
    pairs = generate_synthetic_pairs(400, seed=3000, error_rate=0.5)
    write_corpus(pairs_to_labeled(pairs), tmp_path / "train.tsv")
    dev_pairs = generate_synthetic_pairs(100, seed=3001, error_rate=0.5)
    write_corpus(pairs_to_labeled(dev_pairs), tmp_path / "dev.tsv")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--heads", "1,2,4,8",
                 "--corpus", str(tmp_path / "train.tsv"),
                 "--dev", str(tmp_path / "dev.tsv"),
                 "--seed", "9", "--out-dir", str(out_dir)]) == 0
    for j in (1, 2, 4, 8):
        report = json.loads((out_dir / f"report_j{j}.json").read_text())
        assert set(report) == {"tp", "fp", "fn", "tn", "precision",
                               "recall", "f_half", "n_sentences",
                               "n_tokens", "config_fingerprint", "seed"}
        for key in ("precision", "recall", "f_half"):
            assert 0.0 <= report[key] <= 1.0
        counts = report["tp"] + report["fp"] + report["fn"] + report["tn"]
        assert counts == report["n_tokens"] > 0


def test_determinism_and_persistence(tmp_path):
    pairs = generate_synthetic_pairs(40, seed=55, error_rate=0.5)
    corpus = build_corpus(pairs_to_labeled(pairs), max_len=24)
    config = ModelConfig(n_layers=2, hidden=16, self_attn_heads=2,
                         ffn_dim=32, layer_attn_heads=2,
                         vocab_size=corpus.vocab.n_pieces, max_len=24,
                         dropout=0.1, attn_dropout=0.1)
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, seed=12)
    first = train(corpus, config, tc)
    second = train(corpus, config, tc)
    assert first.epoch_losses == second.epoch_losses
    assert checkpoint_bytes(first.model) == checkpoint_bytes(second.model)

    path = tmp_path / "model.ckpt"
    save_checkpoint(first.model, path)
    reloaded = load_checkpoint(path)
    for sent in corpus.tokenized[:10]:
        after_save, _ = predict_word_probs(first.model, sent.sub_ids,
                                           sent.first_sub_index)
        after_load, _ = predict_word_probs(reloaded, sent.sub_ids,
                                           sent.first_sub_index)
        assert np.array_equal(after_save.data, after_load.data)

    corpus_path = tmp_path / "roundtrip.tsv"
    write_corpus(corpus.sentences, corpus_path)
    back = read_corpus_sentences(corpus_path)
    assert [(s.words, s.labels) for s in back] \
        == [(s.words, s.labels) for s in corpus.sentences]


def test_pad_invariance():
    config = ModelConfig(n_layers=3, hidden=16, self_attn_heads=2,
                         ffn_dim=32, layer_attn_heads=2, vocab_size=40,
                         max_len=12, dropout=0.0, attn_dropout=0.0)
    rng = np.random.default_rng(77)
    params = init_encoder_params(config, rng, init_std=0.5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        ids = rng.integers(4, config.vocab_size, size=n).tolist()
        k = int(rng.integers(1, config.max_len - n + 1))
        with no_grad():
            bare = encode(ids, params, config)
            padded = encode(ids + [PAD_ID] * k, params, config)
        for lhs, rhs in zip(bare, padded):
            assert np.abs(lhs.data - rhs.data[:n]).max() < 1e-10
