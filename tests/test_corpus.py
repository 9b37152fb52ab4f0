"""Corpus machinery against a brute-force alignment oracle and the
scalar aligner it replaced, plus generator, tokenizer and file-format
contracts."""
import functools
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from oracles import (
    all_minimal_scripts, distance_matrix_reference, dp_align_label_reference,
    edit_distance, oracle_labels, random_pair,
)

import gedlab.corpus
from gedlab.corpus import (
    CELL_BUDGET, LABEL_ERR, LABEL_OK, RESERVED_PIECES, UNK_PIECE,
    CorpusFormatError, LabeledSentence, SentencePair, TokenizedSentence,
    _check_token, _check_tokens, _chunks, _distance_matrices, _Sampler,
    align_labels,
    build_corpus, build_vocabulary, dp_align_label, generate_synthetic_pairs,
    merge_annotator_labels, pairs_to_labeled, read_corpus_sentences,
    read_pair_file, read_vocab_file, subtokenize, write_corpus,
    write_pair_file, write_vocab_file,
)


def chunked_distances(pairs):
    """Each pair's edit distance, read off the chunked aligner's
    matrices, in pair order."""
    got = dict(_distance_matrices(pairs))
    return [int(got[k][-1, -1]) for k in range(len(pairs))]


def generator_words():
    """Every word the generator's fixed lists hold."""
    c = gedlab.corpus
    return (c._DETS | set(c._ADJS) | set(c._PREPOSITIONS) | set(c._LOCATIONS)
            | {w for forms in c._NOUNS + c._VERBS for w in forms})


def tokenize_one(words, labels, vocab, max_len=None):
    """build_corpus on one labeled sentence: its tokenized view."""
    corpus = build_corpus([LabeledSentence(list(words), list(labels))],
                          vocab=vocab, max_len=max_len)
    return corpus.tokenized[0]


class TestAlignment:
    def test_single_substitution(self):
        src = "He go to school".split()
        dst = "He goes to school".split()
        assert dp_align_label(src, dst) == ["c", "i", "c", "c"]

    def test_duplicated_word_marks_leftmost(self):
        src = "He goes to the the school".split()
        dst = "He goes to the school".split()
        assert dp_align_label(src, dst) == ["c", "c", "c", "i", "c", "c"]

    def test_missing_word_marks_following_token(self):
        src = "He goes school".split()
        dst = "He goes to school".split()
        assert dp_align_label(src, dst) == ["c", "c", "i"]

    def test_insertion_at_sentence_end_marks_last_token(self):
        src = ["see", "the"]
        dst = ["see", "the", "dog"]
        assert dp_align_label(src, dst) == ["c", "i"]

    def test_identical_sentences_all_clean(self):
        toks = "many dogs chase the cat".split()
        assert dp_align_label(toks, toks) == ["c"] * 5

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            dp_align_label([], ["a"])
        with pytest.raises(ValueError, match="non-empty"):
            dp_align_label(["a"], [])

    def test_agrees_with_oracle_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            src, dst = random_pair(rng)
            assert dp_align_label(src, dst) == oracle_labels(src, dst), (
                src, dst)

    def test_clean_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            src, dst = random_pair(rng)
            labels = dp_align_label(src, dst)
            assert (src == dst) == (labels == [LABEL_OK] * len(src))

    def test_error_count_bounded_by_edit_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            src, dst = random_pair(rng)
            labels = dp_align_label(src, dst)
            assert labels.count(LABEL_ERR) <= edit_distance(src, dst)

    def test_edit_distance_examples(self):
        assert chunked_distances([
            (["a"], ["a"]), (["a", "b"], ["a"]),
            ("x y z".split(), "y z w".split())]) == [0, 1, 2]


def mixed_pairs(rng, n):
    """n random pairs, sides 1-40 tokens over alphabets of 2, 4 and 8."""
    return [random_pair(rng, alphabet="abcdefgh"[:2 ** (1 + k % 3)],
                        max_len=40) for k in range(n)]


def tokenize_reference(words, labels, vocab, max_len):
    """(words, labels, sub_ids, first_sub_index) of one sentence,
    segmenting every word occurrence with subtokenize."""
    kept, sub_ids, first = 0, [], []
    for w in words:
        ids = [vocab.piece_to_id[p] for p in subtokenize(w, vocab.piece_to_id)]
        if len(sub_ids) + len(ids) > max_len:
            if kept:
                break
            ids = ids[:max_len]
        first.append(len(sub_ids))
        sub_ids += ids
        kept += 1
    return list(words[:kept]), list(labels[:kept]), sub_ids, first


def padded_cells(shapes, chunk):
    rows = max(shapes[k][0] for k in chunk) + 1
    cols = max(shapes[k][1] for k in chunk) + 1
    return len(chunk) * rows * cols


class TestChunkedAligner:
    """The chunked numpy aligner against the scalar one it replaced."""

    def test_matrices_and_labels_match_the_scalar_aligner(self):
        pairs = mixed_pairs(np.random.default_rng(16), 400)
        shapes = [(len(s), len(t)) for s, t in pairs]
        chunks = list(_chunks(shapes))
        # several chunks; every chunk pads pairs of mixed shapes, and
        # most pad both sides
        assert len(chunks) >= 3
        assert all(len({shapes[k] for k in chunk}) > 1 for chunk in chunks)
        assert sum(len({shapes[k][0] for k in chunk}) > 1
                   and len({shapes[k][1] for k in chunk}) > 1
                   for chunk in chunks) >= 3
        assert all(padded_cells(shapes, chunk) <= CELL_BUDGET
                   for chunk in chunks)
        assert sorted(k for chunk in chunks for k in chunk) \
            == list(range(len(pairs)))
        seen = set()
        for k, d in _distance_matrices(pairs):
            assert k not in seen
            seen.add(k)
            np.testing.assert_array_equal(
                d, distance_matrix_reference(*pairs[k]), err_msg=str(k))
        assert seen == set(range(len(pairs)))
        assert align_labels(pairs) \
            == [dp_align_label_reference(s, t) for s, t in pairs]
        for s, t in pairs[:100]:
            assert dp_align_label(s, t) == dp_align_label_reference(s, t)

    def test_equal_sides_skip_the_matrix(self, monkeypatch):
        rng = np.random.default_rng(18)
        changed = [(s, t) for s, t in mixed_pairs(rng, 80) if s != t]
        pairs = changed + [(list(s), list(s)) for s, _ in changed[:60]]
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        # sides as lists and tuples; a list is never == a tuple, so a
        # pair of one of each takes the matrix, whatever its tokens
        pairs = [(tuple(s), tuple(t)) if k % 3 == 0 else
                 (s, tuple(t)) if k % 3 == 1 else (s, t)
                 for k, (s, t) in enumerate(pairs)]
        fed = []

        def counted(some):
            fed.extend(some)
            return _distance_matrices(some)

        monkeypatch.setattr("gedlab.corpus._distance_matrices", counted)
        got = align_labels(pairs)
        assert got == [dp_align_label_reference(s, t) for s, t in pairs]
        assert fed == [p for p in pairs if p[0] != p[1]]
        assert 0 < len(fed) < len(pairs) - 30
        same = [SentencePair(list(s), list(s)) for s, _ in changed[:20]]
        assert all(set(lab.labels) == {LABEL_OK}
                   for lab in pairs_to_labeled(same))

    def test_empty_sides(self):
        assert chunked_distances(
            [([], ["a", "b"]), (["a"], []), ([], [])]) == [2, 1, 0]
        assert align_labels([]) == []
        with pytest.raises(ValueError, match="non-empty"):
            align_labels([(["a"], ["a"]), (["b"], [])])

    def test_one_long_pair_is_not_padded_into_the_short_ones(self):
        rng = np.random.default_rng(17)
        long_pair = ([str(k) for k in rng.integers(4, size=1500)],
                     [str(k) for k in rng.integers(4, size=1480)])
        pairs = [random_pair(rng, max_len=12) for _ in range(500)]
        pairs.insert(200, long_pair)
        # the plan first, so a broken budget fails before it allocates
        shapes = [(len(s), len(t)) for s, t in pairs]
        for chunk in _chunks(shapes):
            assert (len(chunk) == 1
                    or padded_cells(shapes, chunk) <= CELL_BUDGET)
        want = dp_align_label_reference(*long_pair)
        tracemalloc.start()
        try:
            got = align_labels(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got[200] == want
        assert got[:200] + got[201:] == [dp_align_label_reference(s, t)
                                         for s, t in pairs[:200] + pairs[201:]]
        # the long pair's own int64 matrix; padding the 500 short pairs
        # to its shape would be 500 times that
        own = 1501 * 1481 * 8
        assert peak < 2 * own, peak / own


class TestTokenChecks:
    def test_whitespace_predicate_over_every_code_point(self):
        def whitespace(tok):
            return any(ch.isspace() for ch in tok)

        for c in range(sys.maxunicode + 1):
            ch = chr(c)
            embedded = "a" + ch + "b"
            assert (ch.split() != [ch]) == ch.isspace(), hex(c)
            assert (embedded.split() != [embedded]) == whitespace(embedded), \
                hex(c)

    def test_side_check_agrees_with_the_token_check(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1)
                  if chr(c).isspace()]
        sides = [["a", "b"], ["a"], [""], ["a", ""], ["", "a"], ["a", "", "b"]]
        sides += [[ch] for ch in spaces] + [["a", "b" + ch] for ch in spaces]
        sides += [["a" + ch + "b", "c"] for ch in spaces]
        sides += [[ch + "a"] for ch in spaces] + [["a" + ch] for ch in spaces]
        for side in sides:
            try:
                for tok in side:
                    _check_token(tok, "side")
                want = None
            except ValueError as err:
                want = str(err)
            try:
                _check_tokens(side, "side")
                got = None
            except ValueError as err:
                got = str(err)
            assert got == want, side


class TestMerge:
    def test_union(self):
        assert merge_annotator_labels([["c", "c", "i"], ["c", "i", "c"]]) \
            == ["c", "i", "i"]

    def test_single_annotator_identity(self):
        assert merge_annotator_labels([["c", "i"]]) == ["c", "i"]

    def test_all_clean(self):
        assert merge_annotator_labels([["c"], ["c"]]) == ["c"]

    def test_idempotent_commutative_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            a = [LABEL_ERR if rng.random() < 0.3 else LABEL_OK for _ in range(n)]
            b = [LABEL_ERR if rng.random() < 0.3 else LABEL_OK for _ in range(n)]
            ab = merge_annotator_labels([a, b])
            assert merge_annotator_labels([ab, ab]) == ab
            assert merge_annotator_labels([b, a]) == ab
            # monotone: one more annotator never flips i back to c
            c = [LABEL_ERR if rng.random() < 0.3 else LABEL_OK for _ in range(n)]
            abc = merge_annotator_labels([a, b, c])
            assert all(not (x == LABEL_ERR and y == LABEL_OK)
                       for x, y in zip(ab, abc))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="annotator 1"):
            merge_annotator_labels([["c", "c"], ["c"]])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            merge_annotator_labels([["c", "x"]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_annotator_labels([])


class TestGenerator:
    def test_error_rate_zero_gives_equal_sides(self):
        for p in generate_synthetic_pairs(50, seed=1, error_rate=0.0):
            assert p.source == p.corrected

    def test_same_seed_is_deterministic(self):
        a = generate_synthetic_pairs(40, seed=12, error_rate=0.7)
        b = generate_synthetic_pairs(40, seed=12, error_rate=0.7)
        assert a == b

    def test_seed7_single_pair_is_one_injected_error(self):
        (pair,) = generate_synthetic_pairs(1, seed=7, error_rate=1.0)
        assert pair.source != pair.corrected
        assert edit_distance(pair.source, pair.corrected) in (1, 2)

    def test_every_corruption_is_detectable(self):
        # closure: whenever sides differ, at least one token is labeled i
        for p in generate_synthetic_pairs(200, seed=5, error_rate=1.0):
            assert p.source != p.corrected
            assert edit_distance(p.source, p.corrected) in (1, 2)
            labels = dp_align_label(p.source, p.corrected)
            assert LABEL_ERR in labels

    def test_tokens_come_from_fixed_vocabulary(self):
        vocab = generator_words()
        for p in generate_synthetic_pairs(100, seed=2, error_rate=0.5):
            assert set(p.source) <= vocab
            assert set(p.corrected) <= vocab

    def test_word_lists_pass_the_token_check(self):
        # generated pairs skip SentencePair's checks: their tokens all
        # come from these lists ("the" before a location is in _SG_DETS)
        c = gedlab.corpus
        words = [*c._SG_DETS, *c._PL_DETS, *chain(*c._NOUNS),
                 *chain(*c._VERBS), *chain(*c._VERB_SWAP.items()), *c._ADJS,
                 *chain(*c._LOCATIONS.items()), *c._PREPOSITIONS]
        assert "the" in c._SG_DETS
        for word in words:
            _check_token(word, "generator")

    def test_vocabulary_is_small_and_sorted(self):
        # a corpus built on generated text gives every word of the lists
        # a whole-word piece, ids in sorted word order
        words = sorted(generator_words())
        assert 100 <= len(words) <= 140
        corpus = build_corpus(pairs_to_labeled(
            generate_synthetic_pairs(2000, seed=2, error_rate=0.5)))
        ids = [corpus.vocab.piece_to_id[w] for w in words]
        assert ids == sorted(ids)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="error_rate"):
            generate_synthetic_pairs(5, seed=0, error_rate=1.5)
        with pytest.raises(ValueError, match=">= 0"):
            generate_synthetic_pairs(-1, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            generate_synthetic_pairs(5, seed=-3)

    def test_labeling_generated_pairs(self):
        pairs = generate_synthetic_pairs(30, seed=9, error_rate=0.5)
        labeled = pairs_to_labeled(pairs)
        assert len(labeled) == len(pairs)
        for p, s in zip(pairs, labeled):
            assert s.words == list(p.source)
            assert len(s.labels) == len(s.words)


class NumpyDraws:
    """The draws the generator makes, from numpy's own Generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self):
        return float(self.rng.random())

    def integers(self, k):
        return int(self.rng.integers(k))


# small k, k = 1 (no word drawn), 2**31 + 1 (about half of all 32-bit
# draws rejected) and 2**32 - 1 (the widest k the 32-bit draw serves)
SAMPLER_KS = [1, 2, 3, 5, 12, 26, 1000, 2**31 + 1, 2**32 - 1]


class TestSampler:
    """corpus._Sampler against numpy's Generator as the oracle."""

    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_mixed_draws_match_numpy(self, block, seed):
        # index len(SAMPLER_KS) is a random() call
        plan = np.random.default_rng(seed + 1).integers(
            len(SAMPLER_KS) + 1, size=4000).tolist()
        oracle = np.random.default_rng(seed)
        sampler = _Sampler(seed) if block is None else _Sampler(seed, block)
        for op in plan:
            if op == len(SAMPLER_KS):
                got, want = sampler.random(), oracle.random()
                assert type(got) is float
            else:
                k = SAMPLER_KS[op]
                got, want = sampler.integers(k), oracle.integers(k)
                assert type(got) is int and 0 <= got < k
            assert got == want

    def test_rejections_are_redrawn(self):
        # at k = 2**31 + 1 a 32-bit x is rejected when x + (x & 1) * 2**31
        # wraps below 2**31 - 1; numpy redraws until one is kept
        k = 2**31 + 1
        oracle = np.random.default_rng(3)
        raw = np.random.default_rng(3).bit_generator.random_raw(200)
        halves = [h for w in raw.tolist()
                  for h in (w & 0xFFFFFFFF, w >> 32)]
        kept = [x for x in halves
                if (x * k) & 0xFFFFFFFF >= (2**32 - k) % k]
        assert 0.3 < 1 - len(kept) / len(halves) < 0.7
        sampler = _Sampler(3, 7)
        for x in kept:
            assert sampler.integers(k) == oracle.integers(k) == x * k >> 32

    def test_k_one_draws_nothing(self):
        sampler = _Sampler(11, 1)
        oracle = np.random.default_rng(11)
        assert [sampler.integers(1) for _ in range(5)] == [0] * 5
        assert sampler.random() == oracle.random()
        assert sampler.integers(1) == 0
        assert sampler.integers(26) == oracle.integers(26)

    def test_random_keeps_the_pending_half(self):
        # integers takes a word's low half; the high half waits through
        # any number of random() calls for the next 32-bit draw
        sampler = _Sampler(5)
        oracle = np.random.default_rng(5)
        for _ in range(50):
            assert sampler.integers(12) == oracle.integers(12)
            assert sampler.random() == oracle.random()
            assert sampler.random() == oracle.random()

    @pytest.mark.parametrize("block", [1, 7])
    def test_pairs_do_not_depend_on_the_block(self, monkeypatch, block):
        want = generate_synthetic_pairs(300, seed=4, error_rate=0.5)
        monkeypatch.setattr(gedlab.corpus, "_Sampler",
                            functools.partial(_Sampler, block=block))
        assert generate_synthetic_pairs(300, seed=4, error_rate=0.5) == want

    @pytest.mark.parametrize("seed,error_rate", [(0, 0.5), (7, 1.0),
                                                 (123, 0.25)])
    def test_pairs_match_numpy_draws(self, monkeypatch, seed, error_rate):
        want = generate_synthetic_pairs(300, seed, error_rate)
        monkeypatch.setattr(gedlab.corpus, "_Sampler", NumpyDraws)
        assert generate_synthetic_pairs(300, seed, error_rate) == want


class TestSubtokens:
    def small_vocab(self, *extra):
        pieces = {p: k for k, p in enumerate(RESERVED_PIECES)}
        for p in extra:
            pieces[p] = len(pieces)
        return pieces

    def test_in_vocabulary_word_is_single_piece(self):
        vocab = self.small_vocab("walk", "##ed")
        assert subtokenize("walk", vocab) == ["walk"]

    def test_greedy_continuation(self):
        vocab = self.small_vocab("walk", "##ed")
        assert subtokenize("walked", vocab) == ["walk", "##ed"]

    def test_unknown_word_maps_to_unk(self):
        vocab = self.small_vocab("walk", "##ed")
        assert subtokenize("běh", vocab) == ["[UNK]"]

    def test_longest_prefix_wins(self):
        vocab = self.small_vocab("walk", "walks", "##s")
        assert subtokenize("walks", vocab) == ["walks"]

    def test_reserved_pieces_never_match_text(self):
        vocab = self.small_vocab()
        assert subtokenize("[PAD]", vocab) == ["[UNK]"]

    def test_built_vocabulary_covers_corpus_alphabet(self):
        sents = [["dogs", "run"], ["dogs", "sleep"], ["cat", "naps"]]
        vocab = build_vocabulary(sents)
        # "dogs" appears twice -> whole-word piece; "cat" only once
        assert "dogs" in vocab.piece_to_id
        assert "cat" not in vocab.piece_to_id
        assert [vocab.piece_to_id[p] for p in RESERVED_PIECES] == [0, 1, 2, 3]
        # single characters and continuations exist, so nothing is UNK
        for s in sents:
            for w in s:
                assert subtokenize(w, vocab.piece_to_id) != ["[UNK]"]

    def test_vocabulary_ids_are_lexicographic_after_reserved(self):
        vocab = build_vocabulary([["b", "a", "b"], ["a"]])
        pieces = vocab.pieces_in_order()
        assert pieces[:4] == list(RESERVED_PIECES)
        assert pieces[4:] == sorted(pieces[4:])

    def test_tokenize_sentence_maps_first_subtokens(self):
        vocab = build_vocabulary([["walk", "walked"], ["walk", "walked"]])
        t = tokenize_one(["walked", "walk"], ["i", "c"], vocab)
        assert t.words == ["walked", "walk"]
        assert t.first_sub_index[0] == 0
        assert t.first_sub_index[1] == len(
            subtokenize("walked", vocab.piece_to_id))

    def test_truncation_drops_whole_words(self, caplog):
        vocab = build_vocabulary([["aa", "bb"], ["aa", "bb"]])
        words = ["aa", "bb", "aa", "bb"]
        with caplog.at_level("WARNING"):
            t = tokenize_one(words, ["c"] * 4, vocab, max_len=3)
        assert t.words == ["aa", "bb", "aa"]
        assert len(t.sub_ids) <= 3
        assert "truncating" in caplog.text

    def test_corpus_counts_dropped_words(self):
        sentences = [LabeledSentence(["aa", "bb", "aa", "bb"], ["c"] * 4),
                     LabeledSentence(["aa"], ["c"])]
        clipped = build_corpus(sentences, max_len=3)
        assert clipped.n_dropped_words == 1
        assert clipped.n_words + clipped.n_dropped_words == 5
        assert build_corpus(sentences).n_dropped_words == 0

    def test_tokenized_sentence_rejects_labels_other_than_c_and_i(self):
        # the loss and evaluate map every label that is not "i" to the
        # clean class, so an "ERR" would train and score as clean
        TokenizedSentence(words=["a", "b"], labels=[LABEL_OK, LABEL_ERR],
                          sub_ids=[4, 5], first_sub_index=[0, 1])
        for bad in ("ERR", "I", "", None):
            with pytest.raises(ValueError, match="c or i"):
                TokenizedSentence(words=["a", "b"], labels=["c", bad],
                                  sub_ids=[4, 5], first_sub_index=[0, 1])

    def test_build_corpus_segments_like_each_occurrence(self):
        vocab = build_vocabulary([["dogs", "run", "dogs"], ["run", "fast"]])
        # "dogs" and "run" repeat; "zebra" has a letter outside the
        # vocabulary (UNK); the third sentence is cut after "runs fast",
        # 6 pieces; "fastdogsrun", 11 pieces, is cut mid-word
        words = [["dogs", "run", "dogs"], ["zebra", "dogs"],
                 ["runs", "fast", "dogs", "run", "fast"],
                 ["fastdogsrun", "run"], ["dogs"], ["fastdogsrun"],
                 ["dogs"], ["zebra"]]
        sentences = [
            LabeledSentence(w, [LABEL_ERR] + [LABEL_OK] * (len(w) - 1))
            for w in words]
        corpus = build_corpus(sentences, vocab=vocab, max_len=6)
        want = [tokenize_reference(s.words, s.labels, vocab, 6)
                for s in sentences]
        assert [(t.words, t.labels, t.sub_ids, t.first_sub_index)
                for t in corpus.tokenized] == want
        assert corpus.tokenized[1].sub_ids[0] == vocab.piece_to_id[UNK_PIECE]
        assert corpus.n_dropped_words == 4
        assert len(corpus.tokenized[3].sub_ids) == 6
        for t in corpus.tokenized:
            assert all(type(k) is int
                       for k in t.sub_ids + t.first_sub_index)
        # no two sentences share a list: one append each shows once
        for t in corpus.tokenized:
            t.sub_ids.append(-1)
        assert [t.sub_ids for t in corpus.tokenized] \
            == [sub_ids + [-1] for _, _, sub_ids, _ in want]

    def test_whole_sentences_share_lists_and_cut_ones_own_theirs(self):
        vocab = build_vocabulary([["aa", "bb"], ["aa", "bb"]])
        whole = LabeledSentence(["aa", "bb"], ["c", "i"])
        cut = LabeledSentence(["aa", "bb", "aa", "bb"], ["c", "i", "i", "c"])
        corpus = build_corpus([whole, cut], vocab=vocab, max_len=3)
        kept, clipped = corpus.tokenized
        assert kept.words is whole.words and kept.labels is whole.labels
        assert (clipped.words, clipped.labels) == (["aa", "bb", "aa"],
                                                   ["c", "i", "i"])
        assert clipped.words is not cut.words
        assert clipped.labels is not cut.labels
        assert (cut.words, cut.labels) == (["aa", "bb", "aa", "bb"],
                                           ["c", "i", "i", "c"])
        assert corpus.n_dropped_words == 1

    def test_overlong_first_word_is_cut(self):
        vocab = build_vocabulary([["abcdef"], ["xyz"]])
        t = tokenize_one(["abcdef"], ["c"], vocab, max_len=2)
        assert len(t.sub_ids) == 2
        assert t.words == ["abcdef"]


class TestFileIO:
    def test_pair_file_round_trip(self, tmp_path):
        pairs = generate_synthetic_pairs(25, seed=3, error_rate=0.6)
        path = tmp_path / "pairs.tsv"
        write_pair_file(pairs, path)
        assert read_pair_file(path) == pairs

    def test_readers_keep_one_str_per_distinct_token(self, tmp_path):
        # split() and partition() make a new str for each token; the
        # readers keep the file's first one of each
        path = tmp_path / "pairs.tsv"
        path.write_text("the dog runs\tthe dogs run\n"
                        "# dog\n"
                        "dogs run\tthe dog runs\n")
        a, b = read_pair_file(path)
        assert a.source[0] is a.corrected[0] is b.corrected[0]
        assert a.source[1] is b.corrected[1]
        assert a.source[2] is b.corrected[2]
        assert a.corrected[1] is b.source[0]
        assert a.corrected[2] is b.source[1]
        path = tmp_path / "corpus.tsv"
        path.write_text("the\tc\ndog\ti\n\ndog\tc\nthe\tc\ndog\tc\n")
        s, t = read_corpus_sentences(path)
        assert s.words[0] is t.words[1]
        assert s.words[1] is t.words[0] is t.words[2]

    def test_pair_file_bad_field_count(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a b\tc d\tx y\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            read_pair_file(path)

    def test_corpus_round_trip(self, tmp_path):
        sentences = pairs_to_labeled(
            generate_synthetic_pairs(20, seed=6, error_rate=0.5))
        path = tmp_path / "corpus.tsv"
        write_corpus(sentences, path)
        assert read_corpus_sentences(path) == sentences

    def test_corpus_header_states_conventions(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        write_corpus(pairs_to_labeled(
            generate_synthetic_pairs(2, seed=1, error_rate=0.0)), path)
        head = path.read_text().splitlines()[:2]
        assert all(line.startswith("#") for line in head)
        assert "insertion" in head[1]

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert read_corpus_sentences(path) == []
        assert build_corpus(read_corpus_sentences(path)).n_sentences == 0

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("dog\tc\ndog\tx\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            read_corpus_sentences(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# header\ndog c\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            read_corpus_sentences(path)

    @pytest.mark.parametrize("line, want", [
        ("w\tc\tx", "line 4: expected word<TAB>label, got 3 fields"),
        ("w\tc ", "line 4: label must be 'c' or 'i', got 'c '"),
        ("\tc", "line 4: empty word"),
        ("w\t\tc", "line 4: expected word<TAB>label, got 3 fields"),
        ("a b\tc", "line 4: sentence token 'a b' contains whitespace"),
        (" \t ", [(["the", "dog"], ["c", "i"]), (["cat"], ["c"])]),
        ("#w\tx", [(["the", "dog", "cat"], ["c", "i", "c"])]),
    ], ids=repr)
    def test_reader_line_cases(self, tmp_path, line, want):
        # a line off the reader's fast path gets the line checks: its
        # parse, or its error and line number, as before that path
        path = tmp_path / "corpus.tsv"
        path.write_text(f"# header\nthe\tc\ndog\ti\n{line}\ncat\tc\n")
        if isinstance(want, str):
            with pytest.raises(CorpusFormatError) as err:
                read_corpus_sentences(path)
            assert str(err.value) == f"{path}: {want}"
        else:
            assert [(s.words, s.labels)
                    for s in read_corpus_sentences(path)] == want

    def test_vocab_file_round_trip(self, tmp_path):
        vocab = build_vocabulary([["dogs", "run"], ["dogs", "run"]])
        path = tmp_path / "vocab.txt"
        write_vocab_file(vocab, path)
        loaded = read_vocab_file(path)
        assert loaded.piece_to_id == vocab.piece_to_id

    def test_vocab_file_requires_reserved_prefix(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\nnope\n[EOS]\n")
        with pytest.raises(CorpusFormatError, match="reserved"):
            read_vocab_file(path)

    def test_vocab_file_rejects_duplicates(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[BOS]\n[EOS]\na\na\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            read_vocab_file(path)

    def test_build_corpus_ids_within_vocab(self):
        corpus = build_corpus(pairs_to_labeled(
            generate_synthetic_pairs(30, seed=11, error_rate=0.5)))
        size = corpus.vocab.n_pieces
        for t in corpus.tokenized:
            assert all(0 <= k < size for k in t.sub_ids)

    def test_sentence_pair_validation(self):
        with pytest.raises(ValueError, match="whitespace"):
            SentencePair(source=["a b"], corrected=["a"])
        with pytest.raises(ValueError):
            SentencePair(source=[], corrected=["a"])

    def test_labeled_sentence_validation(self):
        with pytest.raises(ValueError):
            LabeledSentence(words=["a"], labels=["c", "i"])
        with pytest.raises(ValueError):
            LabeledSentence(words=["a"], labels=["x"])


class TestRecordMemory:
    # Bytes per sentence (or pair) that the readers, and build_corpus
    # after read_corpus_sentences, still hold when they return, on the
    # 3000 sentences below, CPython 3.11.  Read and built: 1459 while
    # the records had a __dict__ each (1789 for records whose dict was
    # filled by __dict__.update, which makes each one a full dict
    # instead of a shared-key one); 1422 with slots but a str per word
    # line and copied word and label lists; 717 with one str per
    # distinct word and a whole sentence's lists shared, and 614 with
    # those lists and sub_ids and first_sub_index at their exact size,
    # not grown by appends.  read_pair_file held 1192 with a str per
    # token and holds 351 with one per distinct token.
    RECORDS_WITH_DICT = 1459
    SHARED_RECORDS = 900
    EXACT_RECORDS = 650
    SHARED_PAIRS = 500
    N = 3000

    def test_reading_and_tokenizing_hold_less_than_dict_records(
            self, tmp_path):
        n = 3000
        path = tmp_path / "corpus.tsv"
        write_corpus(pairs_to_labeled(
            generate_synthetic_pairs(n, seed=4, error_rate=0.5)), path)
        tracemalloc.start()
        try:
            corpus = build_corpus(read_corpus_sentences(path), max_len=32)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corpus.n_sentences == n
        assert not any(hasattr(record, "__dict__") for record in
                       chain(corpus.sentences, corpus.tokenized))
        assert held / n < self.RECORDS_WITH_DICT, held / n

    @pytest.fixture(scope="class")
    def pairs(self):
        return generate_synthetic_pairs(self.N, seed=4, error_rate=0.5)

    def held_by(self, read, path):
        """What read(path) returns, and the bytes it holds then."""
        tracemalloc.start()
        try:
            records = read(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return records, held

    def test_read_and_built_records_share_words(self, tmp_path, pairs):
        path = tmp_path / "corpus.tsv"
        write_corpus(pairs_to_labeled(pairs), path)
        corpus, held = self.held_by(
            lambda p: build_corpus(read_corpus_sentences(p), max_len=32),
            path)
        assert corpus.n_sentences == self.N
        assert held / self.N <= self.SHARED_RECORDS, held / self.N

    def test_read_and_built_records_hold_exact_size_lists(self, tmp_path,
                                                          pairs):
        path = tmp_path / "corpus.tsv"
        write_corpus(pairs_to_labeled(pairs), path)
        corpus, held = self.held_by(
            lambda p: build_corpus(read_corpus_sentences(p), max_len=32),
            path)
        assert all(t.words is s.words and t.labels is s.labels
                   for s, t in zip(corpus.sentences, corpus.tokenized))
        assert held / self.N <= self.EXACT_RECORDS, held / self.N

    def test_read_pairs_share_their_tokens(self, tmp_path, pairs):
        path = tmp_path / "pairs.tsv"
        write_pair_file(pairs, path)
        read, held = self.held_by(read_pair_file, path)
        assert read == pairs
        assert held / self.N <= self.SHARED_PAIRS, held / self.N
