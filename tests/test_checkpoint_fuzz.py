"""Property test of checkpoint loading through the CLI: a truncated or
bit-flipped checkpoint makes `gedlab eval` and `gedlab attn` exit 0 or
2, never raise.  A flipped bit changes one byte, so a header dimension
grows at most about tenfold; huge header values are not generated."""
import contextlib
import io

import numpy as np
import pytest

from gedlab.cli import main
from gedlab.corpus import (
    build_corpus, generate_synthetic_pairs, pairs_to_labeled, write_corpus,
    write_vocab_file,
)
from gedlab.encoder import HEAD_TYPES, ModelConfig
from gedlab.model import init_model
from gedlab.training import checkpoint_bytes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A corpus, its vocabulary and one checkpoint per head type."""
    d = tmp_path_factory.mktemp("fuzz")
    pairs = generate_synthetic_pairs(4, seed=5, error_rate=0.5)
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
