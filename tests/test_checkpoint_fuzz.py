"""Property tests of hostile input files through the CLI: each command
exits 0 or 2, never raises.

* A truncated or bit-flipped checkpoint through `gedlab eval` and
  `gedlab attn`.  A flipped bit changes one byte, so a header dimension
  grows at most about tenfold.
* A checkpoint whose header asks for up to 1e9 of something: it must
  exit 2 before the model is built, so these tests replace init_model
  with one that fails if called and never allocate for real.  So must
  a header nested too deeply for json.
* A checkpoint holding a NaN or an infinite parameter.
* A truncated pair, corpus or vocabulary file, or one with separators,
  NUL, invalid UTF-8, word-piece markers, reserved pieces or multi-byte
  characters spliced in: the pair file through `gedlab label`, the
  corpus and the vocabulary through `gedlab eval` and `gedlab attn`."""
import contextlib
import io
import json
import struct
from unittest import mock

import numpy as np
import pytest

from gedlab.cli import main
from gedlab.corpus import (
    build_corpus, generate_synthetic_pairs, pairs_to_labeled, write_corpus,
    write_pair_file, write_vocab_file,
)
from gedlab.encoder import HEAD_TYPES, ModelConfig
from gedlab.model import init_model, parameter_shapes
from gedlab.training import CHECKPOINT_MAGIC, checkpoint_bytes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A pair file, its corpus, their vocabulary and one checkpoint per
    head type."""
    d = tmp_path_factory.mktemp("fuzz")
    pairs = generate_synthetic_pairs(4, seed=5, error_rate=0.5)
    write_pair_file(pairs, d / "pairs.tsv")
    corpus = build_corpus(pairs_to_labeled(pairs), max_len=16)
    write_corpus(corpus.sentences, d / "corpus.tsv")
    write_vocab_file(corpus.vocab, d / "vocab.txt")
    blobs = {}
    for head_type in HEAD_TYPES:
        config = ModelConfig(n_layers=2, hidden=8, self_attn_heads=2,
                             ffn_dim=16, layer_attn_heads=2,
                             vocab_size=corpus.vocab.n_pieces, max_len=16,
                             head_type=head_type)
        blobs[head_type] = checkpoint_bytes(
            init_model(config, np.random.default_rng(0)))
    return d, blobs


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(head_type=st.sampled_from(HEAD_TYPES),
                  truncate=st.booleans(), data=st.data())
def test_damaged_checkpoint_exits_0_or_2(files, head_type, truncate, data):
    d, blobs = files
    blob = bytearray(blobs[head_type])
    if truncate:
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
    ckpt = d / "damaged.ckpt"
    ckpt.write_bytes(bytes(blob))
    for command in ("eval", "attn"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--checkpoint", str(ckpt),
                         "--vocab", str(d / "vocab.txt"),
                         "--corpus", str(d / "corpus.tsv")])
        assert code in (0, 2), (command, err.getvalue())
        assert "Traceback" not in err.getvalue()


def split_checkpoint(blob):
    fixed = len(CHECKPOINT_MAGIC) + 4
    (head_len,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):fixed])
    return json.loads(blob[fixed:fixed + head_len]), blob[fixed + head_len:]


def join_checkpoint(header, payload):
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + payload


def run_without_init(d, blob):
    """eval and attn on a checkpoint, with init_model made to fail:
    each must exit 2 with one error line."""
    ckpt = d / "huge.ckpt"
    ckpt.write_bytes(blob)
    refuse = mock.patch("gedlab.training.init_model",
                        side_effect=AssertionError("init_model was called"))
    for command in ("eval", "attn"):
        err = io.StringIO()
        with refuse, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--checkpoint", str(ckpt),
                         "--vocab", str(d / "vocab.txt"),
                         "--corpus", str(d / "corpus.tsv")])
        lines = err.getvalue().splitlines()
        assert code == 2, (command, lines)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def header_ints(header, head_type):
    """(container, key) of every int in a checkpoint header that fixes a
    parameter shape or an offset.  key_dim shapes only the mhmla head."""
    config = header["config"]
    spots = [(config, k) for k, v in config.items() if type(v) is int
             and (k != "key_dim" or head_type == "mhmla")]
    for entry in header["manifest"]:
        spots.append((entry, "offset"))
        spots.extend((entry["shape"], i) for i in range(len(entry["shape"])))
    return spots


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(head_type=st.sampled_from(HEAD_TYPES), data=st.data())
def test_huge_header_int_exits_2_before_allocating(files, head_type, data):
    d, blobs = files
    header, payload = split_checkpoint(blobs[head_type])
    spots = header_ints(header, head_type)
    where, key = spots[data.draw(st.integers(0, len(spots) - 1),
                                 label="int")]
    value = data.draw(st.integers(1000, 10**9), label="value")
    hypothesis.assume(value != where[key])
    where[key] = value
    run_without_init(d, join_checkpoint(header, payload))


def test_consistent_huge_header_exits_2_before_allocating(files):
    # the manifest agrees with the config, so only the payload's size
    # stands between this file and a 1e9-wide model
    d, blobs = files
    header, _ = split_checkpoint(blobs["mhmla"])
    header["config"]["hidden"] = 10**9
    manifest, offset = [], 0
    for name, shape in parameter_shapes(
            ModelConfig.from_dict(header["config"])):
        manifest.append({"name": name, "shape": list(shape),
                         "offset": offset})
        offset += 4 * int(np.prod(shape, dtype=object))
    header["manifest"] = manifest
    run_without_init(d, join_checkpoint(header, b"\0" * 64))


# spliced into text files: field and line separators, NUL, a byte that is
# never UTF-8, comment and word-piece markers, a reserved piece, 2-, 3-
# and 4-byte characters, and a 3-byte character cut short
HOSTILE = [b"\t", b"\n", b"\r", b"\x00", b"\xff", b"#", b"##", b"[PAD]",
           "\u00e9".encode(), "\u5b57".encode(), "\U0001f600".encode(),
           "\u5b57".encode()[:2]]
TEXT_FILES = {"pairs": "pairs.tsv", "corpus": "corpus.tsv",
              "vocab": "vocab.txt"}


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(target=st.sampled_from(sorted(TEXT_FILES)),
                  truncate=st.booleans(), data=st.data())
def test_damaged_text_file_exits_0_or_2(files, target, truncate, data):
    d, blobs = files
    text = (d / TEXT_FILES[target]).read_bytes()
    if truncate:
        text = text[:data.draw(st.integers(0, len(text) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="splices")):
            at = data.draw(st.integers(0, len(text)), label="at")
            cut = data.draw(st.integers(0, 2), label="cut")
            piece = data.draw(st.sampled_from(HOSTILE), label="piece")
            text = text[:at] + piece + text[at + cut:]
    damaged = d / ("damaged_" + TEXT_FILES[target])
    damaged.write_bytes(text)
    if target == "pairs":
        commands = [["label", "--pairs", str(damaged),
                     "--out", str(d / "labeled.tsv")]]
    else:
        ckpt = d / "mhmla.ckpt"
        ckpt.write_bytes(blobs["mhmla"])
        corpus = damaged if target == "corpus" else d / "corpus.tsv"
        vocab = damaged if target == "vocab" else d / "vocab.txt"
        commands = [[command, "--checkpoint", str(ckpt), "--vocab",
                     str(vocab), "--corpus", str(corpus)]
                    for command in ("eval", "attn")]
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2), (argv[0], err.getvalue())
        assert "Traceback" not in err.getvalue()


def test_deeply_nested_header_exits_2(files):
    # json gives up on 100k levels with a RecursionError, not a
    # ValueError
    d, blobs = files
    header = b'{"config":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    run_without_init(d, CHECKPOINT_MAGIC + struct.pack("<I", len(header))
                     + header)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["enc.01.ffn.w1", "head.att.w_a"])
def test_non_finite_parameter_exits_2(files, name, value):
    # loaded, it would score every word clean and average nan weights
    d, blobs = files
    config = ModelConfig.from_dict(split_checkpoint(blobs["mhmla"])[0]
                                   ["config"])
    model = init_model(config, np.random.default_rng(0))
    dict(model.named)[name].data.flat[3] = value
    ckpt = d / "non_finite.ckpt"
    ckpt.write_bytes(checkpoint_bytes(model))
    for command in ("eval", "attn"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--checkpoint", str(ckpt),
                         "--vocab", str(d / "vocab.txt"),
                         "--corpus", str(d / "corpus.tsv")])
        lines = err.getvalue().splitlines()
        assert code == 2, (command, lines)
        assert lines == [f"error: {ckpt}: non-finite value in {name}"]
