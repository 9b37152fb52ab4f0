"""The records that corpus code builds from data it has already checked
(generated pairs, read files, aligner labels, segmented words) skip
their public constructors' checks.  So each such path must build only
records that the constructor accepts: rebuilt from its fields, every
record raises nothing and compares equal."""
import dataclasses
import tempfile
from pathlib import Path

import pytest

import gedlab.corpus
from gedlab.corpus import (
    build_corpus, build_vocabulary, generate_synthetic_pairs,
    pairs_to_labeled, read_corpus_sentences, read_pair_file, write_corpus,
    write_pair_file,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every generator word seen once: each segments into one piece per
# character, so a small max_len cuts first words short
_C = gedlab.corpus
CHAR_VOCAB = build_vocabulary([sorted(
    _C._DETS | set(_C._ADJS) | set(_C._PREPOSITIONS) | set(_C._LOCATIONS)
    | {w for forms in _C._NOUNS + _C._VERBS for w in forms})])


def assert_rebuilds(records):
    for record in records:
        fields = {f.name: list(getattr(record, f.name))
                  for f in dataclasses.fields(record)}
        assert type(record)(**fields) == record


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(n=st.integers(0, 30), seed=st.integers(0, 2**64),
                  error_rate=st.floats(0.0, 1.0),
                  max_len=st.integers(1, 12), char_pieces=st.booleans())
@hypothesis.example(n=5, seed=1, error_rate=1.0, max_len=1, char_pieces=True)
def test_trusted_records_pass_their_constructors(n, seed, error_rate,
                                                 max_len, char_pieces):
    pairs = generate_synthetic_pairs(n, seed=seed, error_rate=error_rate)
    assert_rebuilds(pairs)
    sentences = pairs_to_labeled(pairs)
    assert_rebuilds(sentences)
    with tempfile.TemporaryDirectory() as d:
        write_pair_file(pairs, Path(d) / "pairs.tsv")
        read_pairs = read_pair_file(Path(d) / "pairs.tsv")
        write_corpus(sentences, Path(d) / "corpus.tsv")
        read_sentences = read_corpus_sentences(Path(d) / "corpus.tsv")
    assert read_pairs == pairs
    assert_rebuilds(read_pairs)
    assert read_sentences == sentences
    assert_rebuilds(read_sentences)
    corpus = build_corpus(read_sentences, max_len=max_len,
                          vocab=CHAR_VOCAB if char_pieces else None)
    assert_rebuilds(corpus.tokenized)
    if char_pieces and n and max_len == 1:
        # every first word is cut to one piece, and nothing else is kept
        assert all(len(t.sub_ids) == len(t.words) == 1
                   for t in corpus.tokenized)
