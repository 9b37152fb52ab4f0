"""Synthetic error corpora and everything needed to feed them to a model.

A token-level Levenshtein alignment turns (source, corrected) sentence
pairs into per-token c/i labels; a greedy longest-prefix segmenter maps
words onto a sub-token vocabulary built from the corpus itself.
Labels live on words; models consume sub-tokens and the first sub-token
of each word carries the word's label downstream.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
PAD_PIECE, UNK_PIECE, BOS_PIECE, EOS_PIECE = "[PAD]", "[UNK]", "[BOS]", "[EOS]"
RESERVED_PIECES = (PAD_PIECE, UNK_PIECE, BOS_PIECE, EOS_PIECE)

LABEL_OK = "c"
LABEL_ERR = "i"

CORPUS_HEADER = [
    "# gedlab labeled corpus",
    "# labels: c = correct, i = error;"
    " an insertion marks the following source token",
]


class CorpusFormatError(ValueError):
    """A corpus or pair file that does not parse."""


def _check_token(tok: str, what: str) -> None:
    if not tok:
        raise ValueError(f"{what} contains an empty token")
    if tok.split() != [tok]:
        raise ValueError(f"{what} token {tok!r} contains whitespace")


def _check_tokens(tokens: list[str], what: str) -> None:
    # valid tokens joined by spaces split back into themselves; only a
    # side that fails that is checked token by token, for the message
    if " ".join(tokens).split() != tokens:
        for tok in tokens:
            _check_token(tok, what)


def _check_labels(labels: Sequence[str]) -> None:
    if not {LABEL_OK, LABEL_ERR}.issuperset(labels):
        bad = next(lab for lab in labels if lab not in (LABEL_OK, LABEL_ERR))
        raise ValueError(f"label must be c or i, got {bad!r}")


@dataclass
class SentencePair:
    source: list[str]
    corrected: list[str]

    def __post_init__(self):
        if not self.source or not self.corrected:
            raise ValueError("both sides of a pair must be non-empty")
        _check_tokens(self.source, "source")
        _check_tokens(self.corrected, "corrected")


@dataclass
class LabeledSentence:
    words: list[str]
    labels: list[str]

    def __post_init__(self):
        if not self.words:
            raise ValueError("sentence must be non-empty")
        if len(self.words) != len(self.labels):
            raise ValueError(
                f"{len(self.words)} words vs {len(self.labels)} labels")
        _check_tokens(self.words, "sentence")
        _check_labels(self.labels)


# ------------------------------------------------------------- alignment

# padded cells, pairs x (M+1) x (N+1), of one aligner chunk: 512 KiB of
# int64.  A pair larger than this is a chunk of its own.
CELL_BUDGET = 1 << 16


def edit_distance(source: Sequence[str], corrected: Sequence[str]) -> int:
    ((_, d),) = _distance_matrices([(list(source), list(corrected))])
    return int(d[-1, -1])


def _chunks(shapes: list[tuple[int, int]]) -> Iterator[list[int]]:
    """Pair indices in (source, corrected) length order, cut so each
    chunk's padded matrices hold at most CELL_BUDGET cells."""
    chunk: list[int] = []
    rows = cols = 0
    for k in sorted(range(len(shapes)), key=shapes.__getitem__):
        m, n = shapes[k]
        r, c = max(rows, m + 1), max(cols, n + 1)
        if chunk and (len(chunk) + 1) * r * c > CELL_BUDGET:
            yield chunk
            chunk, r, c = [], m + 1, n + 1
        chunk.append(k)
        rows, cols = r, c
    if chunk:
        yield chunk


def _padded(seqs: list[list[int]], width: int, pad: int) -> np.ndarray:
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    out = np.full((len(seqs), width), pad, dtype=np.int64)
    out[np.arange(width) < lengths[:, None]] = list(chain.from_iterable(seqs))
    return out


def _distance_matrices(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]
                       ) -> Iterator[tuple[int, np.ndarray]]:
    """(k, d) for every pair k, chunk by chunk in length order: d is the
    pair's (m+1, n+1) Levenshtein matrix (Wagner and Fischer, 1974).

    A chunk maps its tokens to int ids and pads every pair to the
    chunk's longest source and corrected side; cell (i, j) reads only
    cells above it and to its left, so padding never reaches a real
    cell.  One numpy step per source row serves the whole chunk:
    c = min(diagonal + substitution cost, above + 1) with c[0] = i, and
    the insertion term d[i, j] = min over k <= j of c[k] + (j - k) is
    the running minimum of c - j, plus j.
    """
    shapes = [(len(s), len(t)) for s, t in pairs]
    for chunk in _chunks(shapes):
        ids: dict[str, int] = {}
        src = _padded([[ids.setdefault(tok, len(ids)) for tok in pairs[k][0]]
                       for k in chunk], max(shapes[k][0] for k in chunk), -1)
        dst = _padded([[ids.setdefault(tok, len(ids)) for tok in pairs[k][1]]
                       for k in chunk], max(shapes[k][1] for k in chunk), -2)
        n_rows, n_cols = src.shape[1] + 1, dst.shape[1] + 1
        j = np.arange(n_cols)
        d = np.empty((n_rows, len(chunk), n_cols), dtype=np.int64)
        d[0] = j
        c = np.empty((len(chunk), n_cols), dtype=np.int64)
        for i in range(1, n_rows):
            up = d[i - 1]
            np.minimum(up[:, :-1] + (src[:, i - 1, None] != dst),
                       up[:, 1:] + 1, out=c[:, 1:])
            c[:, 0] = i
            c -= j
            np.minimum.accumulate(c, axis=1, out=d[i])
            d[i] += j
        for row, k in enumerate(chunk):
            m, n = shapes[k]
            yield k, d[:m + 1, row, :n + 1]


def _backtrace(src: Sequence[str], dst: Sequence[str],
               d: np.ndarray) -> list[str]:
    """Labels from the end of d.  It reads two rows of d at a time, as
    lists cut at the column it stands in (j only falls), so a long pair
    holds no Python int per cell."""
    labels = [LABEL_OK] * len(src)
    i, j = len(src), len(dst)
    row, up = d[i].tolist(), d[i - 1].tolist()
    while i > 0 or j > 0:
        here = row[j]
        if (i > 0 and j > 0 and src[i - 1] == dst[j - 1]
                and up[j - 1] == here):
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and up[j - 1] + 1 == here:
            labels[i - 1] = LABEL_ERR
            i, j = i - 1, j - 1
        elif i > 0 and up[j] + 1 == here:
            labels[i - 1] = LABEL_ERR
            i = i - 1
        else:
            # insertion: dst[j-1] is missing from source
            labels[min(i, len(src) - 1)] = LABEL_ERR
            j = j - 1
            continue
        row, up = up, d[i - 1, :j + 1].tolist() if i else []
    return labels


def align_labels(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]
                 ) -> list[list[str]]:
    """Token labels for each (source, corrected) pair, in input order.

    Levenshtein backtrace from the end, ties broken match > substitution
    > deletion > insertion (this pins the leftmost-match alignment).
    Substituted and deleted source tokens are labeled i; an insertion on
    the corrected side labels the following source token i, and an
    insertion at sentence end labels the last source token.  The
    distance matrices are built a chunk of pairs at a time.
    """
    if not all(s and t for s, t in pairs):
        raise ValueError("both sides must be non-empty")
    labels: list[list[str]] = [[] for _ in pairs]
    for k, d in _distance_matrices(pairs):
        labels[k] = _backtrace(*pairs[k], d)
    return labels


def dp_align_label(source: Sequence[str], corrected: Sequence[str]) -> list[str]:
    """Token labels for source against corrected: align_labels on one pair."""
    return align_labels([(list(source), list(corrected))])[0]


def merge_annotator_labels(label_lists: Sequence[Sequence[str]]) -> list[str]:
    """Union of i marks across annotators of the same sentence."""
    if not label_lists:
        raise ValueError("need at least one annotator")
    length = len(label_lists[0])
    for k, labels in enumerate(label_lists):
        if len(labels) != length:
            raise ValueError(
                f"annotator {k} has {len(labels)} labels, expected {length}")
        _check_labels(labels)
    return [LABEL_ERR if LABEL_ERR in marks else LABEL_OK
            for marks in zip(*label_lists)]


# ------------------------------------------------------------- generator

_SG_DETS = ["the", "a", "this", "that", "every"]
_PL_DETS = ["the", "some", "these", "those", "many"]
_DETS = set(_SG_DETS) | set(_PL_DETS)

_NOUNS = [
    ("dog", "dogs"), ("cat", "cats"), ("bird", "birds"), ("child", "children"),
    ("teacher", "teachers"), ("student", "students"), ("farmer", "farmers"),
    ("doctor", "doctors"), ("woman", "women"), ("man", "men"),
    ("apple", "apples"), ("book", "books"), ("letter", "letters"),
    ("song", "songs"), ("door", "doors"), ("window", "windows"),
    ("box", "boxes"), ("story", "stories"), ("picture", "pictures"),
    ("cake", "cakes"), ("horse", "horses"), ("house", "houses"),
    ("tree", "trees"), ("river", "rivers"), ("road", "roads"),
    ("flower", "flowers"),
]
_VERBS = [
    ("chases", "chase"), ("sees", "see"), ("finds", "find"),
    ("carries", "carry"), ("paints", "paint"), ("opens", "open"),
    ("watches", "watch"), ("likes", "like"), ("holds", "hold"),
    ("moves", "move"), ("builds", "build"), ("cleans", "clean"),
]
_VERB_SWAP = {sg: pl for sg, pl in _VERBS} | {pl: sg for sg, pl in _VERBS}

_ADJS = ["big", "small", "red", "green", "old", "young", "happy", "quiet",
         "bright", "tall", "heavy", "little"]

# each location licenses exactly one preposition, so a substituted
# preposition is always a detectable error
_LOCATIONS = {
    "park": "in", "forest": "in", "city": "in", "kitchen": "in",
    "school": "at", "station": "at", "market": "at", "beach": "at",
    "table": "on", "roof": "on", "farm": "on", "hill": "on",
}
_LOCATION_NAMES = sorted(_LOCATIONS)
_PREPOSITIONS = ["at", "behind", "in", "near", "on", "under"]


def generator_vocabulary() -> list[str]:
    words = set(_DETS) | set(_ADJS) | set(_PREPOSITIONS) | set(_LOCATIONS)
    for sg, pl in _NOUNS:
        words |= {sg, pl}
    for sg, pl in _VERBS:
        words |= {sg, pl}
    return sorted(words)


def _noun_phrase(rng: np.random.Generator, plural: bool) -> list[str]:
    dets = _PL_DETS if plural else _SG_DETS
    out = [dets[int(rng.integers(len(dets)))]]
    if rng.random() < 0.3:
        out.append(_ADJS[int(rng.integers(len(_ADJS)))])
    sg, pl = _NOUNS[int(rng.integers(len(_NOUNS)))]
    out.append(pl if plural else sg)
    return out


def _clean_sentence(rng: np.random.Generator) -> list[str]:
    subj_plural = bool(rng.random() < 0.5)
    tokens = _noun_phrase(rng, subj_plural)
    sg, pl = _VERBS[int(rng.integers(len(_VERBS)))]
    tokens.append(pl if subj_plural else sg)
    tokens += _noun_phrase(rng, bool(rng.random() < 0.5))
    if rng.random() < 0.8:
        loc = _LOCATION_NAMES[int(rng.integers(len(_LOCATION_NAMES)))]
        tokens += [_LOCATIONS[loc], "the", loc]
    return tokens


def _corrupt(tokens: list[str], rng: np.random.Generator) -> list[str]:
    """Apply one error; the result always differs from the input."""
    det_at = [k for k, t in enumerate(tokens) if t in _DETS]
    verb_at = [k for k, t in enumerate(tokens) if t in _VERB_SWAP]
    prep_at = [k for k, t in enumerate(tokens) if t in _PREPOSITIONS
               and k + 2 < len(tokens)]  # the PP head, not a stray match
    swap_at = [k for k in range(len(tokens) - 1)
               if tokens[k] != tokens[k + 1]]
    ops = []
    if det_at:
        ops.append("drop_determiner")
    if verb_at:
        ops.append("break_agreement")
    if prep_at:
        ops.append("swap_preposition")
    ops.append("duplicate_token")
    if swap_at:
        ops.append("transpose_tokens")
    op = ops[int(rng.integers(len(ops)))]
    out = list(tokens)
    if op == "drop_determiner":
        del out[det_at[int(rng.integers(len(det_at)))]]
    elif op == "break_agreement":
        k = verb_at[int(rng.integers(len(verb_at)))]
        out[k] = _VERB_SWAP[out[k]]
    elif op == "swap_preposition":
        k = prep_at[int(rng.integers(len(prep_at)))]
        others = [p for p in _PREPOSITIONS if p != out[k]]
        out[k] = others[int(rng.integers(len(others)))]
    elif op == "duplicate_token":
        k = int(rng.integers(len(out)))
        out.insert(k, out[k])
    else:
        k = swap_at[int(rng.integers(len(swap_at)))]
        out[k], out[k + 1] = out[k + 1], out[k]
    return out


def generate_synthetic_pairs(n: int, seed: int,
                             error_rate: float = 0.5) -> list[SentencePair]:
    """n (source, corrected) pairs; each source is corrupted with
    probability error_rate by exactly one injected error."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        clean = _clean_sentence(rng)
        if rng.random() < error_rate:
            pairs.append(SentencePair(source=_corrupt(clean, rng),
                                      corrected=clean))
        else:
            pairs.append(SentencePair(source=list(clean), corrected=clean))
    return pairs


def pairs_to_labeled(pairs: Iterable[SentencePair]) -> list[LabeledSentence]:
    pairs = list(pairs)
    labels = align_labels([(p.source, p.corrected) for p in pairs])
    return [LabeledSentence(words=list(p.source), labels=lab)
            for p, lab in zip(pairs, labels)]


# ----------------------------------------------------------- sub-tokens

@dataclass
class Vocabulary:
    """Dense ids; 0..3 are reserved (PAD, UNK, BOS, EOS)."""
    piece_to_id: dict[str, int]

    @property
    def n_pieces(self) -> int:
        return len(self.piece_to_id)

    def pieces_in_order(self) -> list[str]:
        return [p for p, _ in sorted(self.piece_to_id.items(),
                                     key=lambda kv: kv[1])]


def build_vocabulary(sentences: Iterable[Sequence[str]]) -> Vocabulary:
    """Whole words seen at least twice become pieces, plus every seen
    character both word-initial and as a ## continuation, so any word
    over the corpus alphabet segments without UNK."""
    counts = Counter(w for s in sentences for w in s)
    pieces = {w for w, c in counts.items() if c >= 2}
    chars = {ch for w in counts for ch in w}
    pieces |= chars | {"##" + ch for ch in chars}
    pieces -= set(RESERVED_PIECES)
    piece_to_id = {p: k for k, p in enumerate(RESERVED_PIECES)}
    for k, p in enumerate(sorted(pieces)):
        piece_to_id[p] = 4 + k
    return Vocabulary(piece_to_id=piece_to_id)


def subtokenize(word: str, piece_to_id: dict[str, int]) -> list[str]:
    """Greedy longest-prefix-match segmentation; continuations carry a
    ## prefix.  If the greedy walk gets stuck the whole word is UNK."""
    if not word:
        raise ValueError("cannot segment an empty word")
    out = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while end > start:
            cand = word[start:end]
            if start > 0:
                cand = "##" + cand
            if cand in piece_to_id and cand not in RESERVED_PIECES:
                found = cand
                break
            end -= 1
        if found is None:
            return [UNK_PIECE]
        out.append(found)
        start = end
    return out


@dataclass
class TokenizedSentence:
    """What the model consumes: sub-token ids plus, per word, the index
    of its first sub-token (the row that carries the word's label)."""
    words: list[str]
    labels: list[str]
    sub_ids: list[int]
    first_sub_index: list[int]

    def __post_init__(self):
        if not (len(self.words) == len(self.labels) == len(self.first_sub_index)):
            raise ValueError("words, labels and first_sub_index must align")
        if not self.sub_ids:
            raise ValueError("no sub-tokens")
        _check_labels(self.labels)
        prev = -1
        for k in self.first_sub_index:
            if not 0 <= k < len(self.sub_ids) or k <= prev:
                raise ValueError("first_sub_index must be strictly increasing "
                                 "and in range")
            prev = k


def tokenize_sentence(words: Sequence[str], labels: Sequence[str],
                      vocab: Vocabulary,
                      max_len: int | None = None) -> TokenizedSentence:
    """Segment one labeled sentence.  If max_len is given, whole words
    beyond the sub-token budget are dropped (logged); a first word
    longer than the whole budget is cut mid-word as a last resort."""
    kept_words: list[str] = []
    kept_labels: list[str] = []
    sub_ids: list[int] = []
    first: list[int] = []
    for w, lab in zip(words, labels):
        pieces = subtokenize(w, vocab.piece_to_id)
        ids = [vocab.piece_to_id[p] for p in pieces]
        if max_len is not None and len(sub_ids) + len(ids) > max_len:
            if not kept_words:
                ids = ids[:max_len]
            else:
                log.warning("truncating sentence at %d of %d words "
                            "(max_len=%d)", len(kept_words), len(words), max_len)
                break
        first.append(len(sub_ids))
        sub_ids.extend(ids)
        kept_words.append(w)
        kept_labels.append(lab)
    return TokenizedSentence(words=kept_words, labels=kept_labels,
                             sub_ids=sub_ids, first_sub_index=first)


@dataclass
class LabeledCorpus:
    sentences: list[LabeledSentence]
    vocab: Vocabulary
    tokenized: list[TokenizedSentence] = field(default_factory=list)

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    @property
    def n_words(self) -> int:
        return sum(len(t.words) for t in self.tokenized)

    @property
    def n_dropped_words(self) -> int:
        """Words tokenize_sentence dropped past max_len: scored nowhere."""
        return sum(len(s.words) - len(t.words)
                   for s, t in zip(self.sentences, self.tokenized))


def build_corpus(sentences: list[LabeledSentence],
                 vocab: Vocabulary | None = None,
                 max_len: int | None = None) -> LabeledCorpus:
    """Attach a vocabulary (built from these sentences when not given)
    and the tokenized view."""
    if vocab is None:
        vocab = build_vocabulary(s.words for s in sentences)
    tokenized = [
        tokenize_sentence(s.words, s.labels, vocab, max_len=max_len)
        for s in sentences
    ]
    return LabeledCorpus(sentences=sentences, vocab=vocab, tokenized=tokenized)


# -------------------------------------------------------------- file I/O

def write_pair_file(pairs: Iterable[SentencePair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(" ".join(p.source) + "\t" + " ".join(p.corrected) + "\n")


def read_pair_file(path) -> list[SentencePair]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: expected source<TAB>corrected, "
                    f"got {len(parts)} fields")
            src, dst = parts[0].split(), parts[1].split()
            if not src or not dst:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: empty sentence side")
            pairs.append(SentencePair(source=src, corrected=dst))
    return pairs


def write_corpus(sentences: Iterable[LabeledSentence], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in CORPUS_HEADER:
            fh.write(line + "\n")
        first = True
        for s in sentences:
            if not first:
                fh.write("\n")
            first = False
            for w, lab in zip(s.words, s.labels):
                fh.write(f"{w}\t{lab}\n")


def read_corpus_sentences(path) -> list[LabeledSentence]:
    sentences = []
    words: list[str] = []
    labels: list[str] = []

    def flush():
        if words:
            sentences.append(LabeledSentence(words=list(words),
                                             labels=list(labels)))
            words.clear()
            labels.clear()

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if not line.strip():
                flush()
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: expected word<TAB>label, got "
                    f"{len(parts)} fields")
            w, lab = parts
            if not w:
                raise CorpusFormatError(f"{path}: line {lineno}: empty word")
            if lab not in (LABEL_OK, LABEL_ERR):
                raise CorpusFormatError(
                    f"{path}: line {lineno}: label must be "
                    f"{LABEL_OK!r} or {LABEL_ERR!r}, got {lab!r}")
            words.append(w)
            labels.append(lab)
    flush()
    return sentences


def read_corpus(path, vocab: Vocabulary | None = None,
                max_len: int | None = None) -> LabeledCorpus:
    return build_corpus(read_corpus_sentences(path), vocab=vocab,
                        max_len=max_len)


def write_vocab_file(vocab: Vocabulary, path) -> None:
    """One piece per line; the line number (from 0) is the id."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in vocab.pieces_in_order():
            fh.write(p + "\n")


def read_vocab_file(path) -> Vocabulary:
    piece_to_id: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for k, line in enumerate(fh):
            piece = line.rstrip("\n")
            if not piece:
                raise CorpusFormatError(f"{path}: line {k + 1}: empty piece")
            if piece in piece_to_id:
                raise CorpusFormatError(
                    f"{path}: line {k + 1}: duplicate piece {piece!r}")
            piece_to_id[piece] = k
    for k, p in enumerate(RESERVED_PIECES):
        if piece_to_id.get(p) != k:
            raise CorpusFormatError(
                f"{path}: reserved piece {p!r} must sit at id {k}")
    return Vocabulary(piece_to_id=piece_to_id)
