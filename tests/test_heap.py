"""The CLI's heap policy: `gedlab.cli.main` sets glibc's allocator to
keep freed heap, so a training step reuses the pages the last step freed
instead of faulting them back in.  It decides speed only: a run without
it gives the same bits, and keeping the heap does not grow it."""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gedlab.cli
from gedlab.cli import _keep_freed_heap, _minor_faults, main
from gedlab.corpus import (
    build_corpus, generate_synthetic_pairs, pairs_to_labeled,
)
from gedlab.encoder import ModelConfig
from gedlab.model import init_model
from gedlab.tensor import reset_graph
from gedlab.training import AdamState, TrainConfig, _train_step

ROOT = Path(__file__).resolve().parent.parent
needs_resource = pytest.mark.skipif(gedlab.cli.resource is None,
                                    reason="no resource module")


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


@needs_resource
def test_steady_state_step_takes_no_faults():
    # without the policy, glibc trims the heap top after most B=64 steps
    # and the next forward faults it back in: a median of about 1400
    # minor faults a step on this model
    if not _keep_freed_heap():
        pytest.skip("the C library is not glibc")
    pairs = generate_synthetic_pairs(384, seed=5, error_rate=0.5)
    corpus = build_corpus(pairs_to_labeled(pairs), max_len=32)
    config = ModelConfig(vocab_size=corpus.vocab.n_pieces, key_dim=16,
                         dropout=0.0, attn_dropout=0.0)
    train_config = TrainConfig(batch_size=64, epochs=2, seed=1)
    rng = np.random.default_rng(1)
    model = init_model(config, rng)
    params = model.named
    state = AdamState(model.flat, params)
    faults = []
    for _ in range(train_config.epochs):
        order = rng.permutation(len(corpus.tokenized))
        for start in range(0, len(order), train_config.batch_size):
            batch = [corpus.tokenized[i]
                     for i in order[start:start + train_config.batch_size]]
            before = _minor_faults()
            _train_step(model, params, state, batch, train_config, rng)
            faults.append(_minor_faults() - before)
    # the first two steps grow the heap to its working size
    assert statistics.median(faults[2:]) <= 32, faults


def _manifest(path) -> dict:
    return json.loads(Path(f"{path}.manifest.json").read_text())


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("heap")
    assert main(["gen", "--n", "256", "--seed", "3",
                 "--out", str(d / "pairs.tsv")]) == 0
    assert main(["label", "--pairs", str(d / "pairs.tsv"),
                 "--out", str(d / "corpus.tsv")]) == 0
    return d / "corpus.tsv"


def test_failed_libc_lookup_changes_no_bit(corpus_path, tmp_path,
                                           monkeypatch):
    def train(out):
        assert main(["train", "--corpus", str(corpus_path), "--seed", "4",
                     "--epochs", "2", "--layers", "2", "--hidden", "16",
                     "--self-attn-heads", "2", "--heads", "2",
                     "--ffn-dim", "32", "--out", str(out)]) == 0
        return out.read_bytes(), _manifest(out)

    kept_bytes, kept = train(tmp_path / "kept.ckpt")
    assert kept["environment"]["heap_kept"] is _keep_freed_heap()

    def no_libc(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(gedlab.cli.ctypes, "CDLL", no_libc)
    assert _keep_freed_heap() is False
    plain_bytes, plain = train(tmp_path / "plain.ckpt")
    assert plain["environment"]["heap_kept"] is False
    assert plain_bytes == kept_bytes
    assert (plain["metrics"]["epoch_losses"]
            == kept["metrics"]["epoch_losses"])


def _child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@needs_resource
def test_peak_rss_does_not_grow_with_epochs(corpus_path, tmp_path):
    # freed heap is kept, not leaked: after the first epoch the steps
    # reuse it, so 4 epochs peak where 1 does
    env = _child_env()
    runs = {}
    for epochs in (1, 4):
        out = tmp_path / f"e{epochs}.ckpt"
        runs[epochs] = (out, subprocess.Popen(
            [sys.executable, "-m", "gedlab.cli", "train",
             "--corpus", str(corpus_path), "--seed", "1",
             "--epochs", str(epochs), "--batch-size", "64",
             "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    peaks = {}
    for epochs, (out, proc) in runs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        peaks[epochs] = _manifest(out)["metrics"]["max_rss_mb"]
    assert abs(peaks[4] - peaks[1]) < 1.0, peaks


# gedlab gen in a child process that prints its peak RSS in KiB
GEN_PEAK = """
import resource, sys
from gedlab.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


@needs_resource
def test_gen_peak_rss_does_not_grow_with_n(tmp_path):
    # gen writes each pair as it draws it and holds none: 80000 pairs
    # peak where 20000 do.  Holding them all peaked at 42.4 and 62.2 MB.
    runs = {n: subprocess.Popen(
        [sys.executable, "-c", GEN_PEAK, "gen", "--n", str(n),
         "--seed", "3", "--out", str(tmp_path / f"{n}.tsv")],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for n in (20000, 80000)}
    peaks = {}
    for n, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        peaks[n] = int(out) / 1024
    assert abs(peaks[80000] - peaks[20000]) < 3.0, peaks
