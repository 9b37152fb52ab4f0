"""The benchmark under perfbench/ binds to gedlab by name: checks.py
imports functions at load time and the tracer wraps the module
attributes listed in spans.WRAPS.  A refactor of src/ that renames or
moves one of them breaks the benchmark; these tests catch it without
running the benchmark.  The last one runs the benchmark's own selftest,
whose injected faults must still be caught after a change to src/."""
import importlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import gedlab.cli
import gedlab.corpus
from gedlab.corpus import LabeledSentence, TokenizedSentence, write_corpus
from gedlab.encoder import ModelConfig, encode_batch
from gedlab.model import init_model
from gedlab.training import batch_word_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load(name: str):
    """A perfbench module, loaded from its file without touching
    sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPS = load("spans").WRAPS

# WRAPS targets no command calls any more; ROADMAP item 1a re-binds
# their spans.  Until then each must stay silent, or a span would start
# timing something else unannounced.
UNBOUND = {"gedlab.cli.dp_align_label", "gedlab.cli.generate_synthetic_pairs",
           "gedlab.training.encode_batch",
           "gedlab.model.layer_attention_weights",
           "gedlab.evaluation.predict_word_probs",
           "gedlab.evaluation.word_attention"}


def test_checks_imports_resolve():
    # checks.py imports every gedlab name its output checks call
    load("checks")


def test_reference_word_rows_call_shape():
    # checks.py's batched reference (_batched_word_states) encodes a
    # batch, then takes the word rows with the padded length read off
    # the states: sentence b's word starting at n is row b * T + n
    batch = [TokenizedSentence(words=list("ab"), labels=["c", "i"],
                               sub_ids=[5, 6, 7], first_sub_index=[0, 2]),
             TokenizedSentence(words=list("xyz"), labels=["i", "c", "c"],
                               sub_ids=[5, 6, 7, 8, 9, 10],
                               first_sub_index=[0, 1, 4]),
             TokenizedSentence(words=["q"], labels=["c"], sub_ids=[11],
                               first_sub_index=[0])]
    model = init_model(ModelConfig(n_layers=1, hidden=8, ffn_dim=8,
                                   vocab_size=12, max_len=8),
                       np.random.default_rng(0))
    states, _ = encode_batch([t.sub_ids for t in batch], model.encoder,
                             model.config)
    rows, targets = batch_word_rows(batch, states[0].shape[0] // len(batch))
    assert rows.tolist() == [0, 2, 6, 7, 10, 12]
    assert targets == [0, 1, 1, 0, 0, 0]


def test_build_corpus_op_call_shape(tmp_path):
    # child.py's run_op makes a build_corpus operation as below, and
    # checks.py hashes the repr of the tokenized id lists; a changed
    # signature or element type would fail every corpus_prep operation
    path = tmp_path / "small.tsv"
    write_corpus([LabeledSentence(["the", "dog", "runs"], ["c", "i", "c"]),
                  LabeledSentence(["the", "dogs"], ["c", "c"])], path)
    sentences = gedlab.corpus.read_corpus_sentences(str(path))
    corpus = gedlab.corpus.build_corpus(sentences, max_len=8)
    for t in corpus.tokenized:
        for ids in (t.sub_ids, t.first_sub_index):
            assert type(ids) is list
            assert all(type(k) is int for k in ids)
    failures = []
    load("checks")._build_corpus({"build_corpus": str(path)}, corpus,
                                 failures)
    assert failures == []


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _ in WRAPS],
                         ids=[f"{m}.{a}" for m, a, _ in WRAPS])
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_names_fire(tmp_path, monkeypatch):
    # a tiny in-process pass over every benchmark operation: each
    # traced name outside UNBOUND must be called, each in it must not
    calls = {}
    for module_name, attr, _ in WRAPS:
        module = importlib.import_module(module_name)
        key = f"{module_name}.{attr}"
        calls[key] = 0

        def counted(*args, _original=getattr(module, attr), _key=key,
                    **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    def cli(*argv):
        assert gedlab.cli.main(list(argv)) == 0

    pairs, corpus = str(tmp_path / "pairs.tsv"), str(tmp_path / "c.tsv")
    ckpt = str(tmp_path / "m.ckpt")
    cli("gen", "--n", "24", "--seed", "1", "--out", pairs)
    cli("label", "--pairs", pairs, "--out", corpus)
    cli("train", "--corpus", corpus, "--dev", corpus, "--seed", "1",
        "--epochs", "1", "--layers", "1", "--hidden", "8",
        "--self-attn-heads", "1", "--heads", "1", "--ffn-dim", "8",
        "--out", ckpt)
    for command in ("eval", "attn"):
        cli(command, "--checkpoint", ckpt, "--vocab", ckpt + ".vocab",
            "--corpus", corpus, "--out", str(tmp_path / command))
    gedlab.corpus.build_corpus(gedlab.corpus.read_corpus_sentences(corpus),
                               max_len=32)
    assert {key for key, n in calls.items() if n == 0} == UNBOUND


def test_benchmark_selftest_passes():
    # about 25 s: every workload at a small scale, plus a skewed encoder
    # and a truncated checkpoint that must count as failed operations
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
