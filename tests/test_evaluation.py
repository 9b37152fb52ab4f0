"""Scoring arithmetic against published triples and a counting oracle;
attention summary export."""
import json
import tracemalloc

import numpy as np
import pytest
from oracles import confusion_counts, predict_labels

from gedlab.corpus import (
    LABEL_ERR, LABEL_OK, LabeledCorpus, LabeledSentence, TokenizedSentence,
    build_corpus, generate_synthetic_pairs, pairs_to_labeled,
)
from gedlab.encoder import ModelConfig
from gedlab.evaluation import (
    EVAL_BATCH, AttentionSummary, EvalReport, attention_summary, evaluate,
    f_beta, report_from_counts, summary_to_csv,
)
from gedlab.model import init_model, word_attention
from gedlab.tensor import active_graph, reset_graph


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


def small_setup(n=10, seed=4, head_type="mhmla", **overrides):
    corpus = build_corpus(pairs_to_labeled(
        generate_synthetic_pairs(n, seed=seed, error_rate=0.5)), max_len=16)
    base = dict(n_layers=2, hidden=8, self_attn_heads=2, ffn_dim=16,
                layer_attn_heads=2, vocab_size=corpus.vocab.n_pieces,
                max_len=16, dropout=0.0, attn_dropout=0.0,
                head_type=head_type)
    base.update(overrides)
    model = init_model(ModelConfig(**base), np.random.default_rng(seed),
                       init_std=0.5)
    return model, corpus


def ragged_corpus(model, n=37, seed=3) -> LabeledCorpus:
    """n sentences of 1 to max_len sub-tokens, every length in turn, with
    random word starts and random labels."""
    rng = np.random.default_rng(seed)
    cfg = model.config
    sentences, tokenized = [], []
    for k in range(n):
        n_sub = 1 + (7 * k) % cfg.max_len
        starts = sorted({0, *rng.integers(0, n_sub, size=n_sub // 2).tolist()})
        words = [f"w{i}" for i in range(len(starts))]
        labels = [LABEL_ERR if rng.random() < 0.4 else LABEL_OK
                  for _ in starts]
        sentences.append(LabeledSentence(words=words, labels=labels))
        tokenized.append(TokenizedSentence(
            words=words, labels=labels,
            sub_ids=rng.integers(4, cfg.vocab_size, size=n_sub).tolist(),
            first_sub_index=starts))
    return LabeledCorpus(sentences=sentences, vocab=None, tokenized=tokenized)


def shuffled(corpus: LabeledCorpus, seed=0) -> LabeledCorpus:
    order = np.random.default_rng(seed).permutation(corpus.n_sentences)
    return LabeledCorpus(sentences=[corpus.sentences[i] for i in order],
                         vocab=corpus.vocab,
                         tokenized=[corpus.tokenized[i] for i in order])


def per_sentence_counts(model, corpus) -> tuple[int, int, int, int]:
    total = np.zeros(4, dtype=int)
    for t in corpus.tokenized:
        pred = predict_labels(model, t.sub_ids, t.first_sub_index)
        total += confusion_counts(pred, t.labels)
    return tuple(int(x) for x in total)


def per_sentence_csv(model, corpus) -> str:
    """The attention CSV from one-sentence records, summed per sentence
    and added in corpus order."""
    total = np.zeros((model.config.layer_attn_heads, model.config.n_layers))
    n = 0
    for t in corpus.tokenized:
        record = word_attention(model, t.sub_ids, t.first_sub_index)
        total += record.weights.sum(axis=0)
        n += record.weights.shape[0]
    return summary_to_csv(AttentionSummary(matrix=total / n, n_tokens=n))


class TestConfusionCounts:
    def test_perfect_prediction(self):
        assert confusion_counts(["i", "i", "c"], ["i", "i", "c"]) == (2, 0, 0, 1)

    def test_all_clean_prediction_has_no_tp(self):
        tp, fp, fn, tn = confusion_counts(["c", "c", "c"], ["i", "c", "i"])
        assert (tp, fp) == (0, 0)
        assert (fn, tn) == (2, 1)

    def test_matches_naive_oracle_on_random_labels(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = 50
            pred = [LABEL_ERR if rng.random() < 0.4 else LABEL_OK
                    for _ in range(n)]
            gold = [LABEL_ERR if rng.random() < 0.4 else LABEL_OK
                    for _ in range(n)]
            # independent count, one pass per cell
            want = (
                sum(p == "i" and g == "i" for p, g in zip(pred, gold)),
                sum(p == "i" and g == "c" for p, g in zip(pred, gold)),
                sum(p == "c" and g == "i" for p, g in zip(pred, gold)),
                sum(p == "c" and g == "c" for p, g in zip(pred, gold)),
            )
            assert confusion_counts(pred, gold) == want

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="against"):
            confusion_counts(["c"], ["c", "i"])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="c or i"):
            confusion_counts(["x"], ["c"])


class TestFBeta:
    def test_published_detection_triples(self):
        # percent-scale values; 0.01 percent absolute = 1e-4 here
        assert abs(f_beta(0.6887, 0.4345) - 0.6165) < 1e-4
        assert abs(f_beta(0.6980, 0.3737) - 0.5947) < 1e-4
        assert abs(f_beta(0.7774, 0.3885) - 0.6477) < 1e-4

    def test_equal_precision_recall_is_identity(self):
        for v in (0.0, 0.25, 0.5, 1.0):
            assert f_beta(v, v) == pytest.approx(v, abs=1e-15)

    def test_zero_conventions(self):
        assert f_beta(0.0, 0.0) == 0.0
        assert f_beta(0.0, 0.5) == 0.0
        assert f_beta(0.5, 0.0) == 0.0

    def test_strictly_increasing_when_positive(self):
        p, r, d = 0.4, 0.3, 1e-6
        assert f_beta(p + d, r) > f_beta(p, r)
        assert f_beta(p, r + d) > f_beta(p, r)

    def test_beta_one_is_harmonic_mean(self):
        p, r = 0.6, 0.3
        assert f_beta(p, r, beta=1.0) == pytest.approx(2 * p * r / (p + r))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="precision"):
            f_beta(1.2, 0.5)
        with pytest.raises(ValueError, match="recall"):
            f_beta(0.5, -0.1)
        with pytest.raises(ValueError, match="beta"):
            f_beta(0.5, 0.5, beta=0.0)


class TestEvalReport:
    def test_counts_to_metrics(self):
        rep = report_from_counts(tp=6, fp=2, fn=3, tn=9, n_sentences=4)
        assert rep.precision == pytest.approx(6 / 8)
        assert rep.recall == pytest.approx(6 / 9)
        assert rep.f_half == pytest.approx(
            f_beta(rep.precision, rep.recall, 0.5), abs=1e-12)
        assert rep.n_tokens == 20

    def test_zero_division_conventions(self):
        rep = report_from_counts(tp=0, fp=0, fn=0, tn=5, n_sentences=1)
        assert (rep.precision, rep.recall, rep.f_half) == (0.0, 0.0, 0.0)

    def test_f_zero_iff_no_true_positives(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            tp, fp, fn, tn = (int(rng.integers(0, 5)) for _ in range(4))
            rep = report_from_counts(tp, fp, fn, tn, n_sentences=1)
            assert (rep.f_half == 0.0) == (tp == 0)

    def test_json_has_exact_field_names(self):
        rep = report_from_counts(1, 2, 3, 4, n_sentences=2,
                                 config_fingerprint="abc", seed=7)
        d = json.loads(rep.to_json())
        assert set(d) == {"tp", "fp", "fn", "tn", "precision", "recall",
                          "f_half", "n_sentences", "n_tokens",
                          "config_fingerprint", "seed"}
        assert EvalReport(**d) == rep


class TestEvaluate:
    def test_report_is_internally_consistent(self):
        model, corpus = small_setup()
        rep = evaluate(model, corpus, seed=4)
        assert rep.n_tokens == sum(len(t.words) for t in corpus.tokenized)
        assert rep.n_sentences == corpus.n_sentences
        assert rep.f_half == pytest.approx(
            f_beta(rep.precision, rep.recall, 0.5), abs=1e-12)
        assert rep.config_fingerprint == model.config.fingerprint()
        assert rep.seed == 4

    def test_deterministic(self):
        model, corpus = small_setup()
        assert evaluate(model, corpus) == evaluate(model, corpus)

    def test_leaves_the_tape_empty(self):
        model, corpus = small_setup()
        evaluate(model, corpus)
        assert active_graph().nodes == []

    def test_perfect_predictor_scores_one(self):
        model, corpus = small_setup(seed=6)
        relabeled = []
        any_error = False
        for t in corpus.tokenized:
            pred = predict_labels(model, t.sub_ids, t.first_sub_index)
            any_error = any_error or LABEL_ERR in pred
            relabeled.append(TokenizedSentence(
                words=t.words, labels=pred, sub_ids=t.sub_ids,
                first_sub_index=t.first_sub_index))
        assert any_error, "setup must produce at least one error prediction"
        echo = LabeledCorpus(sentences=corpus.sentences, vocab=corpus.vocab,
                             tokenized=relabeled)
        rep = evaluate(model, echo)
        assert (rep.precision, rep.recall, rep.f_half) == (1.0, 1.0, 1.0)
        assert rep.fp == rep.fn == 0

    def test_exact_tie_goes_to_clean_class(self):
        model, corpus = small_setup()
        model.head.w_out.data[:] = 0.0
        model.head.b_out.data[:] = 0.0
        for t in corpus.tokenized[:3]:
            pred = predict_labels(model, t.sub_ids, t.first_sub_index)
            assert pred == [LABEL_OK] * len(t.words)

    def test_all_clean_prediction_on_errorful_gold_scores_zero(self):
        model, corpus = small_setup()
        model.head.w_out.data[:] = 0.0
        model.head.b_out.data[:] = 0.0
        assert any(LABEL_ERR in t.labels for t in corpus.tokenized)
        rep = evaluate(model, corpus)
        assert (rep.tp, rep.fp) == (0, 0)
        assert (rep.precision, rep.recall, rep.f_half) == (0.0, 0.0, 0.0)


class TestBatchedEvaluate:
    """evaluate runs length-sorted batches of EVAL_BATCH sentences; its
    counts must be those of the one-sentence path."""

    def model_and_corpus(self):
        model, _ = small_setup()
        # shift the error logit so the random model flags close to half
        # of the words, right and wrong
        model.head.b_out.data[:] = [0.0, -0.15]
        return model, ragged_corpus(model)

    def test_corpus_spans_three_ragged_batches(self):
        model, corpus = self.model_and_corpus()
        lengths = {len(t.sub_ids) for t in corpus.tokenized}
        assert lengths == set(range(1, model.config.max_len + 1))
        assert 2 * EVAL_BATCH < corpus.n_sentences < 3 * EVAL_BATCH

    def test_counts_match_per_sentence_predictions(self):
        model, corpus = self.model_and_corpus()
        rep = evaluate(model, corpus)
        tp, fp, fn, tn = per_sentence_counts(model, corpus)
        assert tp > 0 and fp > 0, "setup must produce tp and fp"
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (tp, fp, fn, tn)
        assert rep.n_sentences == 37

    def test_shuffled_corpus_gives_an_equal_report(self):
        model, corpus = self.model_and_corpus()
        assert evaluate(model, shuffled(corpus)) == evaluate(model, corpus)

    def test_one_sentence_corpus(self):
        model, corpus = self.model_and_corpus()
        one = LabeledCorpus(sentences=corpus.sentences[5:6], vocab=None,
                            tokenized=corpus.tokenized[5:6])
        rep = evaluate(model, one)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == per_sentence_counts(
            model, one)
        assert rep.n_sentences == 1
        assert summary_to_csv(attention_summary(model, one)) == \
            per_sentence_csv(model, one)

    def test_attention_csv_matches_per_sentence_records(self):
        model, corpus = self.model_and_corpus()
        for c in (corpus, shuffled(corpus)):
            assert summary_to_csv(attention_summary(model, c)) == \
                per_sentence_csv(model, c)

    def test_peak_memory_of_one_batch_stays_small(self):
        # desk width, 64 sentences of max_len words: evaluate peaked at
        # 4.7 MiB in batches of 16, 9.4 MiB in batches of 32 and 18.5 MiB
        # in batches of 64, which raised the eval benchmark's peak RSS
        # 12%, past its 10% bound (see EVAL_BATCH)
        rng = np.random.default_rng(0)
        cfg = ModelConfig(vocab_size=40, key_dim=16, dropout=0.0,
                          attn_dropout=0.0)
        model = init_model(cfg, rng)
        n = cfg.max_len
        tokenized = [TokenizedSentence(
            words=["w"] * n, labels=[LABEL_OK] * n,
            sub_ids=rng.integers(4, 40, size=n).tolist(),
            first_sub_index=list(range(n))) for _ in range(64)]
        corpus = LabeledCorpus(
            sentences=[LabeledSentence(["w"] * n, [LABEL_OK] * n)] * 64,
            vocab=None, tokenized=tokenized)
        tracemalloc.start()
        try:
            evaluate(model, corpus)
            mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert mib <= 8, mib


class TestAttentionSummary:
    def test_single_layer_summary_is_all_ones(self):
        model, corpus = small_setup(n_layers=1)
        summary = attention_summary(model, corpus)
        assert np.allclose(summary.matrix, 1.0, atol=1e-12)

    def test_rows_are_distributions(self):
        model, corpus = small_setup()
        summary = attention_summary(model, corpus)
        assert summary.matrix.shape == (2, 2)
        assert np.all(summary.matrix >= 0)
        assert np.abs(summary.matrix.sum(axis=1) - 1.0).max() < 1e-6

    def test_matches_hand_average_of_records(self):
        model, corpus = small_setup(layer_attn_heads=1)
        stacks = []
        for t in corpus.tokenized:
            rec = word_attention(model, t.sub_ids, t.first_sub_index)
            stacks.append(rec.weights)
        want = np.concatenate(stacks, axis=0).mean(axis=0)
        summary = attention_summary(model, corpus)
        assert summary.n_tokens == sum(len(t.words) for t in corpus.tokenized)
        assert np.abs(summary.matrix - want).max() < 1e-12

    def test_leaves_the_tape_empty(self):
        # the records hold plain arrays; a recorded tape would grow with
        # every sentence of the corpus
        model, corpus = small_setup()
        attention_summary(model, corpus)
        assert active_graph().nodes == []

    def test_rejects_non_mhmla_head(self):
        model, corpus = small_setup(head_type="final")
        with pytest.raises(ValueError, match="depth attention"):
            attention_summary(model, corpus)

    def test_constructor_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AttentionSummary(matrix=np.array([[0.2, 0.2]]), n_tokens=3)

    def test_constructor_rejects_nan_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AttentionSummary(matrix=np.array([[0.5, 0.5], [np.nan, 0.5]]),
                             n_tokens=3)


class TestCsvExport:
    def test_exact_small_example(self):
        summary = AttentionSummary(matrix=np.array([[0.25, 0.75]]), n_tokens=1)
        assert summary_to_csv(summary) == "head,layer_1,layer_2\n1,0.25,0.75\n"

    def test_round_trips_through_parsing(self):
        model, corpus = small_setup(layer_attn_heads=4, n_layers=3)
        summary = attention_summary(model, corpus)
        lines = summary_to_csv(summary).strip().split("\n")
        assert lines[0] == "head,layer_1,layer_2,layer_3"
        assert len(lines) == 5
        for j, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(j + 1)
            values = np.array([float(x) for x in cells[1:]])
            assert np.abs(values - summary.matrix[j]).max() < 1e-5
