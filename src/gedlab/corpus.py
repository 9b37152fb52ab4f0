"""Synthetic error corpora and everything needed to feed them to a model.

A token-level Levenshtein alignment turns (source, corrected) sentence
pairs into per-token c/i labels; a greedy longest-prefix segmenter maps
words onto a sub-token vocabulary built from the corpus itself.
Labels live on words; models consume sub-tokens and the first sub-token
of each word carries the word's label downstream.
"""
from __future__ import annotations

import functools
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

PAD_ID = 0      # RESERVED_PIECES[0]: a piece's id is its place there
PAD_PIECE, UNK_PIECE, BOS_PIECE, EOS_PIECE = "[PAD]", "[UNK]", "[BOS]", "[EOS]"
RESERVED_PIECES = (PAD_PIECE, UNK_PIECE, BOS_PIECE, EOS_PIECE)

LABEL_OK = "c"
LABEL_ERR = "i"
_LABELS = frozenset((LABEL_OK, LABEL_ERR))

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
    if not _LABELS.issuperset(labels):
        bad = next(lab for lab in labels if lab not in _LABELS)
        raise ValueError(f"label must be c or i, got {bad!r}")


# Each corpus input is checked once, where it enters: by a record's
# public constructor, or by the reader of its file.  Records made from
# data checked so (generator words, read files, aligner labels, the
# segmenter's ids) are built by the _trusted_* functions, which assign
# the fields and skip __post_init__.

@dataclass(slots=True)
class SentencePair:
    source: list[str]
    corrected: list[str]

    def __post_init__(self):
        if not self.source or not self.corrected:
            raise ValueError("both sides of a pair must be non-empty")
        _check_tokens(self.source, "source")
        _check_tokens(self.corrected, "corrected")


def _trusted_pair(source: list[str], corrected: list[str]) -> SentencePair:
    pair = object.__new__(SentencePair)
    pair.source = source
    pair.corrected = corrected
    return pair


@dataclass(slots=True)
class LabeledSentence:
    """Words with a c/i label each.  build_corpus's TokenizedSentence of
    a sentence it keeps whole holds these very lists, so neither record
    may be mutated."""
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


def _trusted_sentence(words: list[str], labels: list[str]) -> LabeledSentence:
    sentence = object.__new__(LabeledSentence)
    sentence.words = words
    sentence.labels = labels
    return sentence


# ------------------------------------------------------------- alignment

# padded cells, pairs x (M+1) x (N+1), of one aligner chunk: 512 KiB of
# int64.  A pair larger than this is a chunk of its own.
CELL_BUDGET = 1 << 16


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
    insertion at sentence end labels the last source token.  A pair
    whose sides are equal is all c: its matrix's diagonal is all 0, so
    the backtrace would match every token.  The other pairs' distance
    matrices are built a chunk of pairs at a time.
    """
    if not all(s and t for s, t in pairs):
        raise ValueError("both sides must be non-empty")
    labels = [[LABEL_OK] * len(s) for s, _ in pairs]
    changed = [k for k, (s, t) in enumerate(pairs) if s != t]
    for row, d in _distance_matrices([pairs[k] for k in changed]):
        k = changed[row]
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

class _Sampler:
    """The draws of np.random.default_rng(seed).random() and
    .integers(k), for 1 <= k < 2**32, value for value, from PCG64's raw
    64-bit words read a block at a time as Python ints.

    random() is the word's top 53 bits times 2**-53.  integers(k) is
    numpy's 32-bit Lemire draw (Lemire, arXiv 1805.10941): the high half
    of x * k for a 32-bit x, redrawn while the low half is below
    (2**32 - k) % k.  A word feeds two such x, low half first; its high
    half waits for the next 32-bit draw, and random() never takes it.
    integers(1) is 0 and draws nothing."""

    __slots__ = ("_words", "_high")

    def __init__(self, seed: int, block: int = 1024):
        raw = np.random.default_rng(seed).bit_generator.random_raw
        # raw(block) is never None, so this chain of blocks never ends
        self._words = chain.from_iterable(
            iter(lambda: raw(block).tolist(), None))
        self._high: int | None = None

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0 ** -53

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        while True:
            x = self._high
            if x is None:
                word = next(self._words)
                x, self._high = word & 0xFFFFFFFF, word >> 32
            else:
                self._high = None
            m = x * k
            if (m & 0xFFFFFFFF) >= (0x100000000 - k) % k:
                return m >> 32


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


def _noun_phrase(rng: _Sampler, plural: bool) -> list[str]:
    dets = _PL_DETS if plural else _SG_DETS
    out = [dets[rng.integers(len(dets))]]
    if rng.random() < 0.3:
        out.append(_ADJS[rng.integers(len(_ADJS))])
    sg, pl = _NOUNS[rng.integers(len(_NOUNS))]
    out.append(pl if plural else sg)
    return out


def _clean_sentence(rng: _Sampler) -> list[str]:
    subj_plural = rng.random() < 0.5
    tokens = _noun_phrase(rng, subj_plural)
    sg, pl = _VERBS[rng.integers(len(_VERBS))]
    tokens.append(pl if subj_plural else sg)
    tokens += _noun_phrase(rng, rng.random() < 0.5)
    if rng.random() < 0.8:
        loc = _LOCATION_NAMES[rng.integers(len(_LOCATION_NAMES))]
        tokens += [_LOCATIONS[loc], "the", loc]
    return tokens


def _corrupt(tokens: list[str], rng: _Sampler) -> list[str]:
    """Apply one error; the result always differs from the input."""
    det_at = [k for k, t in enumerate(tokens) if t in _DETS]
    verb_at = [k for k, t in enumerate(tokens) if t in _VERB_SWAP]
    prep_at = [k for k, t in enumerate(tokens) if t in _PREPOSITIONS
               and k + 2 < len(tokens)]  # the PP head, not a stray match
    ops = []
    if det_at:
        ops.append("drop_determiner")
    if verb_at:
        ops.append("break_agreement")
    if prep_at:
        ops.append("swap_preposition")
    ops.append("duplicate_token")
    if len(set(tokens)) > 1:  # some neighbours differ
        ops.append("transpose_tokens")
    op = ops[rng.integers(len(ops))]
    out = list(tokens)
    if op == "drop_determiner":
        del out[det_at[rng.integers(len(det_at))]]
    elif op == "break_agreement":
        k = verb_at[rng.integers(len(verb_at))]
        out[k] = _VERB_SWAP[out[k]]
    elif op == "swap_preposition":
        k = prep_at[rng.integers(len(prep_at))]
        others = [p for p in _PREPOSITIONS if p != out[k]]
        out[k] = others[rng.integers(len(others))]
    elif op == "duplicate_token":
        k = rng.integers(len(out))
        out.insert(k, out[k])
    else:
        swap_at = [k for k in range(len(tokens) - 1)
                   if tokens[k] != tokens[k + 1]]
        k = swap_at[rng.integers(len(swap_at))]
        out[k], out[k + 1] = out[k + 1], out[k]
    return out


def _draw_pair(rng: _Sampler, error_rate: float) -> SentencePair:
    clean = _clean_sentence(rng)
    if rng.random() < error_rate:
        return _trusted_pair(_corrupt(clean, rng), clean)
    return _trusted_pair(list(clean), clean)


def _synthetic_pairs(n: int, seed: int,
                     error_rate: float = 0.5) -> Iterator[SentencePair]:
    """generate_synthetic_pairs' pairs, each drawn when it is asked for.
    The arguments are checked here, before the first draw."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
    rng = _Sampler(seed)
    return (_draw_pair(rng, error_rate) for _ in range(n))


def generate_synthetic_pairs(n: int, seed: int,
                             error_rate: float = 0.5) -> list[SentencePair]:
    """n (source, corrected) pairs; each source is corrupted with
    probability error_rate by exactly one injected error.  Every token
    comes from the fixed word lists, so no pair is checked."""
    return list(_synthetic_pairs(n, seed, error_rate))


def pairs_to_labeled(pairs: Iterable[SentencePair]) -> list[LabeledSentence]:
    pairs = list(pairs)
    labels = align_labels([(p.source, p.corrected) for p in pairs])
    return [_trusted_sentence(list(p.source), lab)
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


@dataclass(slots=True)
class TokenizedSentence:
    """What the model consumes: sub-token ids plus, per word, the index
    of its first sub-token (the row that carries the word's label).
    build_corpus gives a sentence it keeps whole the very words and
    labels lists of its LabeledSentence, so neither record may be
    mutated."""
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


def _trusted_tokenized(words: list[str], labels: list[str], sub_ids: list[int],
                       first_sub_index: list[int]) -> TokenizedSentence:
    tokenized = object.__new__(TokenizedSentence)
    tokenized.words = words
    tokenized.labels = labels
    tokenized.sub_ids = sub_ids
    tokenized.first_sub_index = first_sub_index
    return tokenized


def _tokenize(words: list[str], labels: list[str],
              piece_to_id: dict[str, int], max_len: int | None,
              word_ids: dict[str, list[int]]) -> TokenizedSentence:
    """Segment one labeled sentence, reading each word's sub-token ids
    from word_ids and segmenting only the words not in it yet.  The
    cached id lists are copied into sub_ids, not shared.
    If max_len is given, whole words beyond the sub-token budget are
    dropped (logged); a first word longer than the whole budget is cut
    mid-word as a last resort.  A sentence kept whole keeps the given
    words and labels lists; a cut one gets copies of their prefixes."""
    sub_ids: list[int] = []
    first: list[int] = []
    for w in words:
        ids = word_ids.get(w)
        if ids is None:
            ids = word_ids[w] = [piece_to_id[p]
                                 for p in subtokenize(w, piece_to_id)]
        if max_len is not None and len(sub_ids) + len(ids) > max_len:
            if not first:
                ids = ids[:max_len]
            else:
                log.warning("truncating sentence at %d of %d words "
                            "(max_len=%d)", len(first), len(words), max_len)
                words, labels = words[:len(first)], labels[:len(first)]
                break
        first.append(len(sub_ids))
        sub_ids.extend(ids)
    # exact-size copies: a list grown by appends keeps spare capacity
    return _trusted_tokenized(words, labels, sub_ids[:], first[:])


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
        """Words build_corpus dropped past max_len: scored nowhere."""
        return sum(len(s.words) - len(t.words)
                   for s, t in zip(self.sentences, self.tokenized))


def build_corpus(sentences: list[LabeledSentence],
                 vocab: Vocabulary | None = None,
                 max_len: int | None = None) -> LabeledCorpus:
    """Attach a vocabulary (built from these sentences when not given)
    and the tokenized view.  Each distinct word is segmented once."""
    if vocab is None:
        vocab = build_vocabulary(s.words for s in sentences)
    word_ids: dict[str, list[int]] = {}
    tokenized = [
        _tokenize(s.words, s.labels, vocab.piece_to_id, max_len, word_ids)
        for s in sentences
    ]
    return LabeledCorpus(sentences=sentences, vocab=vocab, tokenized=tokenized)


# -------------------------------------------------------------- file I/O

def _utf8_text(read):
    """The reader read(path), with a file that is not UTF-8 text
    reported as a CorpusFormatError that names the path and the line."""
    @functools.wraps(read)
    def reader(path):
        try:
            return read(path)
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from None
    return reader


def _decode_error(path, exc: UnicodeDecodeError) -> CorpusFormatError:
    """exc as the error of the file's first line that does not decode.
    No UTF-8 sequence holds the newline byte, so each line decodes
    alone."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return CorpusFormatError(
                    f"{path}: line {lineno}: not UTF-8 text: {bad}")
    return CorpusFormatError(f"{path}: not UTF-8 text: {exc}")


def write_pair_file(pairs: Iterable[SentencePair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(" ".join(p.source) + "\t" + " ".join(p.corrected) + "\n")


@_utf8_text
def read_pair_file(path) -> list[SentencePair]:
    """The pairs of a source<TAB>corrected file.  str.split() makes no
    empty token and none that holds whitespace, so a side is checked
    only for being empty.  Equal tokens anywhere in the file are one
    str object."""
    pairs = []
    share = {}.setdefault  # the file's first str of each token
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
            pairs.append(_trusted_pair(list(map(share, src, src)),
                                       list(map(share, dst, dst))))
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


@_utf8_text
def read_corpus_sentences(path) -> list[LabeledSentence]:
    """The sentences of a word<TAB>label file.  Each line is checked as
    it is read; a sentence is checked once more where it ends, for
    whitespace inside a word.  Equal words anywhere in the file are one
    str object."""
    sentences = []
    share = {}.setdefault  # the file's first str of each word
    words: list[str] = []
    labels: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            w, _, lab = line.partition("\t")
            if w and lab in _LABELS:  # a well-formed word line
                words.append(share(w, w))
                labels.append(lab)
                continue
            # any other line ends a sentence or is an error
            if not line.strip():
                if words:
                    sentences.append(_read_sentence(path, words, labels))
                    words, labels = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: expected word<TAB>label, got "
                    f"{len(parts)} fields")
            if not w:
                raise CorpusFormatError(f"{path}: line {lineno}: empty word")
            raise CorpusFormatError(
                f"{path}: line {lineno}: label must be "
                f"{LABEL_OK!r} or {LABEL_ERR!r}, got {lab!r}")
    if words:
        sentences.append(_read_sentence(path, words, labels))
    return sentences


def _read_sentence(path, words: list[str],
                   labels: list[str]) -> LabeledSentence:
    """The sentence of checked word lines read from path, once no word
    holds whitespace."""
    try:
        _check_tokens(words, "sentence")
    except ValueError as exc:
        raise _whitespace_error(path, exc) from None
    return _trusted_sentence(words[:], labels[:])  # exact-size copies


def _whitespace_error(path, exc: ValueError) -> CorpusFormatError:
    """exc, a sentence's failed token check, as the error of the first
    word line in the corpus file whose word fails it: every earlier
    sentence passed, so that line is in the failed sentence."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            try:
                _check_token(line.split("\t")[0], "sentence")
            except ValueError as bad:
                return CorpusFormatError(f"{path}: line {lineno}: {bad}")
    return CorpusFormatError(f"{path}: {exc}")  # the file changed since


def write_vocab_file(vocab: Vocabulary, path) -> None:
    """One piece per line; the line number (from 0) is the id."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in vocab.pieces_in_order():
            fh.write(p + "\n")


@_utf8_text
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
