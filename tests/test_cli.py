"""Command-line contract: exit codes, manifests, config precedence, and
the gen/label/train/eval pipeline invariants."""
import hashlib
import json
import os
import struct

import numpy as np
import pytest
from oracles import pair_part

import gedlab.cli
from gedlab.cli import build_parser, main, resolve_configs
from gedlab.corpus import (
    LabeledSentence, SentencePair, build_corpus, dp_align_label,
    read_corpus_sentences, read_pair_file, write_corpus, write_pair_file,
)
from gedlab.encoder import ModelConfig
from gedlab.model import init_model
from gedlab.tensor import active_graph, reset_graph
from gedlab.training import CHECKPOINT_MAGIC, load_checkpoint


@pytest.fixture(autouse=True)
def clean_tape():
    reset_graph()
    yield
    reset_graph()


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One gen+label pipeline shared by the read-only tests."""
    d = tmp_path_factory.mktemp("cli")
    assert run("gen", "--n", "30", "--seed", "7", "--error-rate", "0.5",
               "--out", str(d / "pairs.tsv")) == 0
    assert run("label", "--pairs", str(d / "pairs.tsv"),
               "--out", str(d / "corpus.tsv")) == 0
    assert run("gen", "--n", "12", "--seed", "8", "--error-rate", "0.5",
               "--out", str(d / "dev_pairs.tsv")) == 0
    assert run("label", "--pairs", str(d / "dev_pairs.tsv"),
               "--out", str(d / "dev.tsv")) == 0
    return d


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "model.ckpt"
    code = run("train", "--corpus", str(workdir / "corpus.tsv"),
               "--dev", str(workdir / "dev.tsv"),
               "--seed", "3", "--epochs", "2", "--layers", "2",
               "--hidden", "16", "--self-attn-heads", "2", "--heads", "2",
               "--ffn-dim", "32", "--out", str(out))
    assert code == 0
    return out


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_lists_valid_flags(self, capsys):
        assert run("gen", "--n", "1", "--seed", "0", "--out", "x",
                   "--frobnicate") == 1
        err = capsys.readouterr().err
        assert "--frobnicate" in err
        # the usage line names the flags that do exist
        assert "--error-rate" in err and "--seed" in err

    def test_unknown_subcommand(self):
        assert run("transmogrify") == 1

    def test_missing_required_flag(self):
        assert run("gen", "--n", "5", "--out", "x") == 1  # no --seed

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        assert run("label", "--pairs", str(tmp_path / "absent.tsv"),
                   "--out", str(tmp_path / "c.tsv")) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_error_rate_is_data_error(self, tmp_path):
        assert run("gen", "--n", "5", "--seed", "1", "--error-rate", "1.5",
                   "--out", str(tmp_path / "p.tsv")) == 2
        # gen writes each pair as it draws it, so it checks its
        # arguments before it opens the pair file
        assert list(tmp_path.iterdir()) == []

    def test_negative_n_writes_nothing(self, tmp_path, capsys):
        assert run("gen", "--n", "-1", "--seed", "1",
                   "--out", str(tmp_path / "p.tsv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: n must be >= 0"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen", "train", "sweep",
                                         "gradcheck"])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        # the corpus files are absent: the seed must fail before any
        # input is read and before anything is written
        out, absent = str(tmp_path / "out"), str(tmp_path / "absent.tsv")
        argv = {"gen": ["--n", "5", "--out", out],
                "train": ["--corpus", absent, "--out", out],
                "sweep": ["--heads", "1", "--corpus", absent,
                          "--dev", absent, "--out-dir", out],
                "gradcheck": []}[command]
        assert run(command, *argv, "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert errors[0].endswith("seed must be >= 0, got -1")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_malformed_corpus_is_data_error(self, tmp_path, trained):
        bad = tmp_path / "bad.tsv"
        bad.write_text("word\tc\textra-column\n")
        assert run("eval", "--checkpoint", str(trained),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(bad)) == 2

    @pytest.mark.parametrize("word_line", ["big dog\ti", " \tc"])
    def test_word_with_whitespace_names_its_line(self, tmp_path, capsys,
                                                 word_line):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"# header\nthe\tc\ndog\tc\n\nthe\tc\n# note\n"
                       f"{word_line}\n")
        out = tmp_path / "never.ckpt"
        assert run("train", "--corpus", str(bad), "--seed", "3",
                   "--epochs", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {bad}: line 7: sentence token")
        assert errors[0].endswith("contains whitespace")
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["pairs", "corpus", "vocab"])
    def test_non_utf8_file_is_named(self, workdir, trained, tmp_path,
                                    capsys, reader):
        binary = tmp_path / "binary.tsv"
        binary.write_bytes(b"the\tc\ndog\t\xff\n")
        out = tmp_path / "out"
        argv = {
            "pairs": ["label", "--pairs", binary, "--out", out],
            "corpus": ["train", "--corpus", workdir / "corpus.tsv",
                       "--dev", binary, "--seed", "3", "--epochs", "1",
                       "--out", out],
            "vocab": ["eval", "--checkpoint", trained, "--vocab", binary,
                      "--corpus", workdir / "corpus.tsv"],
        }[reader]
        assert run(*map(str, argv)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {binary}: line 2: not UTF-8")
        assert sorted(tmp_path.iterdir()) == [binary]

    @pytest.mark.parametrize("command, ends", [
        pytest.param("eval", "corpus has no word positions to score",
                     id="eval"),
        pytest.param("attn", "corpus has no word positions to average over",
                     id="attn"),
    ])
    def test_corpus_without_words_is_data_error(self, tmp_path, capsys,
                                                trained, command, ends):
        comments = tmp_path / "comments.tsv"
        comments.write_text("# header\n\n# no sentence follows\n")
        out = tmp_path / "out"
        assert run(command, "--checkpoint", str(trained),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(comments), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert errors == [f"error: {ends}"]
        assert sorted(tmp_path.iterdir()) == [comments]

    def test_dev_without_words_fails_before_training(self, workdir,
                                                     tmp_path, capsys):
        comments = tmp_path / "comments.tsv"
        comments.write_text("# header\n")
        out = tmp_path / "never.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--dev", str(comments), "--seed", "3", "--epochs", "1",
                   "--out", str(out)) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert errors == [f"error: {comments}: corpus has no word positions "
                          f"to score"]
        assert sorted(tmp_path.iterdir()) == [comments]

    def test_truncated_checkpoint_is_data_error(self, tmp_path, trained):
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(trained.read_bytes()[:100])
        assert run("eval", "--checkpoint", str(clipped),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(tmp_path / "unused.tsv")) == 2

    def test_malformed_checkpoint_header_is_data_error(self, tmp_path,
                                                       trained, capsys):
        blob = trained.read_bytes()
        fixed = len(CHECKPOINT_MAGIC) + 4
        (head_len,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):fixed])
        header = json.loads(blob[fixed:fixed + head_len])
        header["manifest"][0]["shape"] = None
        head = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(head))
                        + head + blob[fixed + head_len:])
        assert run("eval", "--checkpoint", str(bad),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(tmp_path / "unused.tsv")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and "bad header" in errors[0]

    def test_per_pair_head_checkpoint_is_data_error(self, tmp_path, trained,
                                                    capsys):
        # the older layout saved one head.att.LL.JJ.* tensor per (layer,
        # head) pair; it is not read, however right its numbers are
        model = load_checkpoint(trained)
        head = model.head
        L, J = len(head.w_v), model.config.layer_attn_heads
        entries = [(n, t.data) for n, t in model.named
                   if not n.startswith("head.att.")]
        entries += [(f"head.att.{l:02d}.{j:02d}.{name}",
                     pair_part(head, name, l, j))
                    for l in range(L) for j in range(J)
                    for name in ("w_v", "b_v", "w_k", "b_k", "w_a", "b_a")]
        manifest, chunks, offset = [], [], 0
        for name, data in sorted(entries, key=lambda e: e[0]):
            chunks.append(data.astype("<f4").tobytes())
            manifest.append({"name": name, "shape": list(data.shape),
                             "offset": offset})
            offset += len(chunks[-1])
        head_bytes = json.dumps({"config": model.config.to_dict(),
                                 "manifest": manifest}).encode()
        old = tmp_path / "per_pair.ckpt"
        old.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(head_bytes))
                        + head_bytes + b"".join(chunks))
        out = tmp_path / "report.json"
        assert run("eval", "--checkpoint", str(old),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(tmp_path / "unused.tsv"),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert "unknown parameter head.att.00.00." in errors[0]
        assert list(tmp_path.iterdir()) == [old]

    def eval_exits_2(self, tmp_path, trained, config, entries, capsys):
        """Write entries [(name, array)] in turn as a checkpoint of config,
        run eval on it and return its one error line; nothing else may be
        written."""
        manifest, chunks, offset = [], [], 0
        for name, data in entries:
            chunks.append(np.asarray(data).astype("<f4").tobytes())
            manifest.append({"name": name, "shape": list(np.shape(data)),
                             "offset": offset})
            offset += len(chunks[-1])
        head = json.dumps({"config": config.to_dict(),
                           "manifest": manifest}).encode()
        ckpt = tmp_path / "given.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(head))
                         + head + b"".join(chunks))
        assert run("eval", "--checkpoint", str(ckpt),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(tmp_path / "unused.tsv"),
                   "--out", str(tmp_path / "report.json")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert list(tmp_path.iterdir()) == [ckpt]
        return errors[0]

    def test_checkpoint_with_key_biases_is_data_error(self, tmp_path,
                                                      trained, capsys):
        # the older layout: each block's attn.b_k too, 86 tensors at the
        # desk config, sorted by name
        config = ModelConfig(vocab_size=load_checkpoint(
            trained).config.vocab_size, key_dim=16)
        model = init_model(config, np.random.default_rng(0))
        entries = [(n, t.data) for n, t in model.named] + [
            (f"enc.{i:02d}.attn.b_k", np.zeros(config.hidden))
            for i in range(config.n_layers)]
        assert len(entries) == 86
        error = self.eval_exits_2(tmp_path, trained, config,
                                  sorted(entries, key=lambda e: e[0]), capsys)
        assert "unknown parameter enc.00.attn.b_k" in error

    def test_checkpoint_out_of_order_is_data_error(self, tmp_path, trained,
                                                   capsys):
        model = load_checkpoint(trained)
        entries = [(n, t.data) for n, t in model.named]
        entries[3], entries[4] = entries[4], entries[3]
        error = self.eval_exits_2(tmp_path, trained, model.config, entries,
                                  capsys)
        assert "out of order" in error and entries[3][0] in error


class TestGenLabel:
    def test_gen_writes_pairs_and_manifest(self, workdir):
        pairs = read_pair_file(workdir / "pairs.tsv")
        assert len(pairs) == 30
        manifest = json.loads((workdir / "pairs.tsv.manifest.json")
                              .read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 7
        assert manifest["metrics"]["n_pairs"] == 30
        assert "pairs" in manifest["checksums"]

    def test_gen_is_deterministic(self, workdir, tmp_path):
        again = tmp_path / "again.tsv"
        assert run("gen", "--n", "30", "--seed", "7", "--error-rate", "0.5",
                   "--out", str(again)) == 0
        assert again.read_text() == (workdir / "pairs.tsv").read_text()

    def test_error_rate_zero_yields_all_correct_labels(self, tmp_path):
        pairs = tmp_path / "clean_pairs.tsv"
        corpus = tmp_path / "clean.tsv"
        assert run("gen", "--n", "25", "--seed", "11", "--error-rate", "0",
                   "--out", str(pairs)) == 0
        assert run("label", "--pairs", str(pairs),
                   "--out", str(corpus)) == 0
        for sent in read_corpus_sentences(corpus):
            assert set(sent.labels) == {"c"}

    def test_label_output_matches_direct_alignment(self, workdir):
        pairs = read_pair_file(workdir / "pairs.tsv")
        sentences = read_corpus_sentences(workdir / "corpus.tsv")
        assert len(sentences) == len(pairs)
        for pair, sent in zip(pairs, sentences):
            assert sent.words == pair.source
            assert sent.labels == dp_align_label(pair.source, pair.corrected)

    def test_two_annotators_union_marks(self, tmp_path):
        first = [SentencePair(["a", "cat", "sleep"], ["a", "cat", "sleeps"])]
        second = [SentencePair(["a", "cat", "sleep"], ["the", "cat", "sleep"])]
        write_pair_file(first, tmp_path / "a.tsv")
        write_pair_file(second, tmp_path / "b.tsv")
        out = tmp_path / "merged.tsv"
        assert run("label", "--pairs", str(tmp_path / "a.tsv"),
                   "--pairs", str(tmp_path / "b.tsv"),
                   "--out", str(out)) == 0
        merged = read_corpus_sentences(out)
        assert merged[0].labels == ["i", "c", "i"]

    def test_annotator_source_mismatch_rejected(self, tmp_path):
        write_pair_file([SentencePair(["a", "cat"], ["a", "cat"])],
                        tmp_path / "a.tsv")
        write_pair_file([SentencePair(["a", "dog"], ["a", "dog"])],
                        tmp_path / "b.tsv")
        assert run("label", "--pairs", str(tmp_path / "a.tsv"),
                   "--pairs", str(tmp_path / "b.tsv"),
                   "--out", str(tmp_path / "m.tsv")) == 2

    def test_outputs_are_pinned_bytes(self, tmp_path):
        # sha256 of files written by the generator (PCG64's raw words)
        # and the batched aligner; a moved draw or tie rule changes
        # them.  The second annotator keeps seed 7's sources and takes
        # seed 8's corrections, unrelated sentences, so the union file
        # leans on every tie rule
        for seed, name in ((7, "a.pairs"), (8, "c.pairs")):
            assert run("gen", "--n", "2000", "--seed", str(seed),
                       "--error-rate", "0.5",
                       "--out", str(tmp_path / name)) == 0
        sources = (tmp_path / "a.pairs").read_text().splitlines()
        others = (tmp_path / "c.pairs").read_text().splitlines()
        (tmp_path / "b.pairs").write_text("".join(
            a.split("\t")[0] + "\t" + c.split("\t")[1] + "\n"
            for a, c in zip(sources, others)))
        assert run("label", "--pairs", str(tmp_path / "a.pairs"),
                   "--out", str(tmp_path / "one.tsv")) == 0
        assert run("label", "--pairs", str(tmp_path / "a.pairs"),
                   "--pairs", str(tmp_path / "b.pairs"),
                   "--out", str(tmp_path / "two.tsv")) == 0
        pinned = {
            "a.pairs": "8e1c3c69f73148a7502608c2fb5fb4ea"
                       "fd23caec5cf841b3383c40af7e235e81",
            "b.pairs": "0a0515c971811593b59fa30f5cd1eba7"
                       "a7899beff59f4274a851daed944fbe37",
            "one.tsv": "a338ee53671ce3cc22cd9d0296528ff0"
                       "0c36e85d3074e02ed86704e1d2131037",
            "two.tsv": "0af7e6d099a18b41979419060000ca63"
                       "b13f1063a930869b600b96814dd90be8",
        }
        for name, digest in pinned.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, name
        # the tokenized ids of one.tsv, hashed as the benchmark's
        # build_corpus check does, from segmenting every word occurrence
        corpus = build_corpus(read_corpus_sentences(tmp_path / "one.tsv"),
                              max_len=32)
        ids = hashlib.sha256()
        for t in corpus.tokenized:
            ids.update(repr((t.sub_ids, t.first_sub_index)).encode())
        assert corpus.vocab.n_pieces == 166
        assert ids.hexdigest() == ("80b47a587f84403a5144a94bb706245e"
                                   "af00eeac6e1c45699a3dac3528b490c7")


class TestManifestEnvironment:
    """Every manifest says which numpy and BLAS made it, and with what
    thread setting, so two runs can tell whether they should match bit
    for bit."""

    @staticmethod
    def environment(path):
        env = json.loads(path.read_text())["environment"]
        assert set(env) == {"numpy", "blas", "blas_version", "blas_threads",
                            "heap_kept"}
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and env["blas"]
        assert isinstance(env["blas_version"], str)
        return env

    @pytest.mark.parametrize("env, threads", [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"}, "1"),
        ({"OMP_NUM_THREADS": "2"}, "2"),
        ({}, None),
    ])
    def test_gen_records_the_thread_setting(self, tmp_path, monkeypatch,
                                            env, threads):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "pairs.tsv"
        assert run("gen", "--n", "3", "--seed", "1", "--out", str(out)) == 0
        path = tmp_path / "pairs.tsv.manifest.json"
        assert self.environment(path)["blas_threads"] == threads

    def test_numpy_without_dict_config_records_no_blas(self, tmp_path,
                                                       monkeypatch, capsys):
        # numpy before 1.26: show_config takes no mode and only prints
        def show_config():
            print("blas_opt_info:")

        monkeypatch.setattr(np, "show_config", show_config)
        out = tmp_path / "pairs.tsv"
        assert run("gen", "--n", "3", "--seed", "1", "--out", str(out)) == 0
        env = json.loads((tmp_path / "pairs.tsv.manifest.json").read_text())
        env = env["environment"]
        assert env["numpy"] == np.__version__
        assert env["blas"] is None and env["blas_version"] is None
        assert "blas_opt_info" not in capsys.readouterr().out

    def test_train_and_eval_record_it(self, workdir, trained, tmp_path,
                                      monkeypatch):
        threads = (os.environ.get("OPENBLAS_NUM_THREADS")
                   or os.environ.get("OMP_NUM_THREADS"))
        train_env = self.environment(workdir / "model.ckpt.manifest.json")
        assert train_env["blas_threads"] == threads
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "report.json"
        assert run("eval", "--checkpoint", str(trained),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(workdir / "dev.tsv"),
                   "--out", str(out)) == 0
        eval_env = self.environment(tmp_path / "report.json.manifest.json")
        assert eval_env == {**train_env, "blas_threads": "1"}


class TestTrainEval:
    def test_train_emits_checkpoint_vocab_manifest(self, workdir, trained):
        assert trained.exists()
        assert (workdir / "model.ckpt.vocab").exists()
        manifest = json.loads((workdir / "model.ckpt.manifest.json")
                              .read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["model"]["n_layers"] == 2
        assert manifest["config"]["train"]["epochs"] == 2
        assert len(manifest["metrics"]["epoch_losses"]) == 2
        assert set(manifest["checksums"]) == {"checkpoint", "vocab"}

    def test_manifest_reports_faults_and_peak_rss(self, workdir, trained,
                                                  tmp_path, monkeypatch):
        metrics = json.loads((workdir / "model.ckpt.manifest.json")
                             .read_text())["metrics"]
        assert type(metrics["minor_faults"]) is int
        assert metrics["minor_faults"] >= 0
        assert 1.0 < metrics["max_rss_mb"] < 4096.0
        # where the resource module is missing both are null
        monkeypatch.setattr(gedlab.cli, "resource", None)
        out = tmp_path / "m.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--seed", "3", "--epochs", "1", "--layers", "1",
                   "--hidden", "8", "--self-attn-heads", "1",
                   "--heads", "1", "--ffn-dim", "8", "--out", str(out)) == 0
        metrics = json.loads((tmp_path / "m.ckpt.manifest.json")
                             .read_text())["metrics"]
        assert metrics["minor_faults"] is None
        assert metrics["max_rss_mb"] is None

    def test_eval_reproduces_manifest_f_half_exactly(self, workdir, trained,
                                                     tmp_path):
        manifest = json.loads((workdir / "model.ckpt.manifest.json")
                              .read_text())
        report_path = tmp_path / "report.json"
        assert run("eval", "--checkpoint", str(trained),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(workdir / "dev.tsv"),
                   "--seed", "3", "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        recorded = manifest["metrics"]["dev"]
        assert report["f_half"] == recorded["f_half"]
        assert report["precision"] == recorded["precision"]
        assert report["recall"] == recorded["recall"]
        for k in ("tp", "fp", "fn", "tn"):
            assert report[k] == recorded[k]

    def test_train_is_deterministic(self, workdir, trained, tmp_path):
        twin = tmp_path / "twin.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--dev", str(workdir / "dev.tsv"),
                   "--seed", "3", "--epochs", "2", "--layers", "2",
                   "--hidden", "16", "--self-attn-heads", "2",
                   "--heads", "2", "--ffn-dim", "32",
                   "--out", str(twin)) == 0
        assert twin.read_bytes() == trained.read_bytes()

    def test_eval_to_stdout(self, workdir, trained, capsys):
        assert run("eval", "--checkpoint", str(trained),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(workdir / "dev.tsv")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tp"] + report["fp"] + report["fn"] + report["tn"] \
            == report["n_tokens"]

    def test_malformed_dev_fails_before_training(self, workdir, tmp_path,
                                                 capsys):
        bad = tmp_path / "bad_dev.tsv"
        bad.write_text("word\tc\textra-column\n")
        out = tmp_path / "never.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--dev", str(bad), "--seed", "3", "--epochs", "1",
                   "--out", str(out)) == 2
        assert not out.exists()
        assert "bad_dev.tsv" in capsys.readouterr().err

    def test_dropped_words_close_the_token_count(self, workdir, trained,
                                                 tmp_path):
        # three dev sentences per line overrun the 32-piece max_len
        dev = read_corpus_sentences(workdir / "dev.tsv")
        long = [LabeledSentence(a.words + b.words + c.words,
                                a.labels + b.labels + c.labels)
                for a, b, c in zip(dev[0::3], dev[1::3], dev[2::3])]
        corpus = tmp_path / "long.tsv"
        write_corpus(long, corpus)
        n_words = sum(len(s.words) for s in long)
        common = ("--checkpoint", str(trained),
                  "--vocab", str(trained) + ".vocab", "--corpus", str(corpus))
        assert run("eval", *common, "--out", str(tmp_path / "r.json")) == 0
        assert run("attn", *common, "--out", str(tmp_path / "a.csv")) == 0
        for out in ("r.json", "a.csv"):
            metrics = json.loads((tmp_path / f"{out}.manifest.json")
                                 .read_text())["metrics"]
            assert metrics["dropped_words"] > 0
            assert metrics["n_tokens"] + metrics["dropped_words"] == n_words

    def test_vocab_checkpoint_size_mismatch(self, workdir, trained,
                                            tmp_path):
        lines = (workdir / "model.ckpt.vocab").read_text().splitlines()
        clipped = tmp_path / "short.vocab"
        clipped.write_text("\n".join(lines[:-2]) + "\n")
        assert run("eval", "--checkpoint", str(trained),
                   "--vocab", str(clipped),
                   "--corpus", str(workdir / "dev.tsv")) == 2


class TestPinnedTraining:
    """Same-seed `train` runs at the desk model whose checkpoint bytes
    and full-precision epoch losses are pinned, so a change to a step's
    arithmetic, its order or its draws shows here.  The figures hold for
    one numpy and BLAS build; on another the test skips, naming it."""

    BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas",
             "blas_version": "0.3.31.188.0"}
    RUNS = {
        "b16": (["--batch-size", "16", "--dropout", "0",
                 "--attn-dropout", "0"],
                "6cda96a05e8c5a65eaa474ca116983b6"
                "30e4a40a71066db1ebb591b68d45d37e",
                [0.6876476817618725, 0.6481479899862349]),
        "b4": (["--batch-size", "4", "--dropout", "0.1",
                "--attn-dropout", "0.1"],
               "3df6fad9ed6c0bba246b5d401a93a4d8"
               "724fda450119a41d67a3c67bcc2263cb",
               [0.6237946873048864, 0.3242595540394073]),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_checkpoint_and_losses_are_pinned(self, workdir, tmp_path, name):
        build = {k: gedlab.cli.numeric_environment()[k] for k in self.BUILD}
        if build != self.BUILD:
            pytest.skip(f"pinned on {self.BUILD}, this is {build}")
        flags, digest, losses = self.RUNS[name]
        out = tmp_path / f"{name}.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--seed", "3", "--epochs", "2", *flags,
                   "--out", str(out)) == 0
        metrics = json.loads((tmp_path / f"{name}.ckpt.manifest.json")
                             .read_text())["metrics"]
        assert metrics["epoch_losses"] == losses
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestAttn:
    def test_csv_shape_and_row_sums(self, workdir, trained, capsys):
        assert run("attn", "--checkpoint", str(trained),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(workdir / "dev.tsv")) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "head,layer_1,layer_2"
        assert len(lines) == 3  # header + one row per head
        for line in lines[1:]:
            weights = [float(x) for x in line.split(",")[1:]]
            assert abs(sum(weights) - 1.0) < 1e-6

    def test_file_output_matches_stdout(self, workdir, trained, tmp_path,
                                        capsys):
        out = tmp_path / "attn.csv"
        common = ("attn", "--checkpoint", str(trained),
                  "--vocab", str(trained) + ".vocab",
                  "--corpus", str(workdir / "dev.tsv"))
        assert run(*common) == 0
        stdout_csv = capsys.readouterr().out
        assert run(*common, "--out", str(out)) == 0
        assert out.read_text() == stdout_csv
        assert (tmp_path / "attn.csv.manifest.json").exists()

    def test_leaves_the_tape_empty(self, workdir, trained):
        assert run("attn", "--checkpoint", str(trained),
                   "--vocab", str(trained) + ".vocab",
                   "--corpus", str(workdir / "dev.tsv")) == 0
        assert active_graph().nodes == []


class TestGradcheck:
    def test_passes_at_probe_scale(self, capsys):
        assert run("gradcheck", "--layers", "2", "--hidden", "8",
                   "--heads", "2", "--eps", "1e-5", "--tol", "1e-4",
                   "--seed", "5") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["passed"] is True
        assert result["max_rel_err"] < 1e-4
        assert result["n_checked"] > 0

    def test_heads_flag_sets_both_attention_kinds(self, capsys):
        assert run("gradcheck", "--heads", "1", "--layers", "1",
                   "--hidden", "4", "--sentences", "1", "--max-len", "6",
                   "--seed", "0") == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["self_attn_heads"] == 1
        assert config["layer_attn_heads"] == 1

    @pytest.mark.parametrize("eps", ["0", "nan"])
    def test_bad_eps_is_data_error(self, capsys, eps):
        # --tol is held to the same rule as --eps
        for flag in ("eps", "tol"):
            assert run("gradcheck", "--layers", "1", "--hidden", "4",
                       "--sentences", "1", "--max-len", "6",
                       f"--{flag}", eps) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            errors = [line for line in err.splitlines()
                      if line.startswith("error: ")]
            assert len(errors) == 1 and flag in errors[0]

    def test_one_token_sentences(self, capsys):
        # seed 0 draws a length of 0 for the third sentence at
        # [max_len // 2, max_len]
        assert run("gradcheck", "--layers", "1", "--hidden", "4",
                   "--sentences", "3", "--max-len", "1", "--seed", "0") == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("sentences", ["0", "-2"])
    def test_no_sentences_is_named(self, capsys, sentences):
        # checked before the model is made: this model would not allocate
        assert run("gradcheck", "--hidden", "1000000", "--heads", "1",
                   "--sentences", sentences) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --sentences must be >= 1, got {sentences}"]
        assert captured.out == ""

    def test_vocab_without_a_free_id_is_data_error(self, capsys):
        assert run("gradcheck", "--layers", "1", "--hidden", "4",
                   "--sentences", "1", "--vocab-size", "4") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and "--vocab-size" in errors[0]

    def test_oversize_model_is_data_error(self, capsys):
        # 146 TiB of parameters: more than a 47-bit address space, so
        # the buffer's allocation fails at once without touching memory
        assert run("gradcheck", "--hidden", "1000000", "--heads", "1") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and "allocate" in errors[0]


class TestSweep:
    def test_one_report_per_head_count(self, workdir, tmp_path):
        out_dir = tmp_path / "sweep"
        assert run("sweep", "--heads", "1,2",
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--dev", str(workdir / "dev.tsv"),
                   "--seed", "2", "--epochs", "1", "--layers", "2",
                   "--hidden", "16", "--self-attn-heads", "2",
                   "--ffn-dim", "32", "--key-dim", "8",
                   "--out-dir", str(out_dir)) == 0
        for j in (1, 2):
            report = json.loads((out_dir / f"report_j{j}.json").read_text())
            assert set(report) >= {"tp", "fp", "fn", "tn", "precision",
                                   "recall", "f_half"}
            assert (out_dir / f"model_j{j}.ckpt").exists()
        manifest = json.loads((out_dir / "sweep.manifest.json").read_text())
        assert manifest["config"]["head_counts"] == [1, 2]
        assert set(manifest["metrics"]) == {"j1", "j2", "dropped_words",
                                            "dev_dropped_words"}

    def test_bad_head_list_is_usage_error(self, workdir, tmp_path, capsys):
        for heads in ("1,x", ",", "4,,8", ",4,", "4,", "1, ,2"):
            assert run("sweep", "--heads", heads,
                       "--corpus", str(workdir / "corpus.tsv"),
                       "--dev", str(workdir / "dev.tsv"),
                       "--seed", "2", "--out-dir", str(tmp_path / "s")) == 1
            assert "argument --heads" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_repeated_head_count_is_usage_error(self, workdir, tmp_path,
                                                capsys):
        # "2,2" used to train J=2 twice, the second run overwriting the
        # first's checkpoint and report, with one result in the manifest
        assert run("sweep", "--heads", "1,2,2",
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--dev", str(workdir / "dev.tsv"),
                   "--seed", "2", "--out-dir", str(tmp_path / "s")) == 1
        err = capsys.readouterr().err
        assert "argument --heads" in err and "more than once" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("heads", ["3", "1,0"])
    def test_bad_head_count_writes_nothing(self, workdir, tmp_path, capsys,
                                           heads):
        assert run("sweep", "--heads", heads,
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--dev", str(workdir / "dev.tsv"),
                   "--seed", "2", "--out-dir", str(tmp_path / "s")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and "layer_attn_heads" in errors[0]
        assert not (tmp_path / "s").exists()

    def test_record_carries_model_config(self, workdir, tmp_path):
        out_dir = tmp_path / "sweep"
        assert run("sweep", "--heads", "1",
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--dev", str(workdir / "dev.tsv"),
                   "--seed", "2", "--epochs", "1", "--layers", "1",
                   "--hidden", "8", "--self-attn-heads", "2",
                   "--ffn-dim", "16", "--dropout", "0.1",
                   "--out-dir", str(out_dir)) == 0
        config = json.loads((out_dir / "sweep.manifest.json").read_text()
                            )["config"]
        assert (config["model"]["hidden"], config["model"]["dropout"]) \
            == (8, 0.1)
        assert "dropout" not in config["train"]


class TestConfigResolution:
    def test_precedence_defaults_file_flags(self, workdir, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(
            {"hidden": 16, "ffn_dim": 32, "n_layers": 2,
             "self_attn_heads": 2, "layer_attn_heads": 2, "epochs": 5}))
        out = tmp_path / "conf_model.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--seed", "1", "--config", str(conf),
                   "--epochs", "1", "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "conf_model.ckpt.manifest.json")
                              .read_text())
        model = manifest["config"]["model"]
        assert model["hidden"] == 16          # from the file
        assert model["max_len"] == 32         # untouched default
        assert manifest["config"]["train"]["epochs"] == 1  # flag wins

    def test_unknown_config_field_rejected(self, workdir, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"hidden_size": 16}))
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--seed", "1", "--config", str(conf),
                   "--out", str(tmp_path / "m.ckpt")) == 2

    def test_vocab_size_in_config_is_data_error(self, workdir, tmp_path,
                                                capsys):
        # the corpus's vocabulary sets vocab_size, so a file's value
        # could only be dropped without a word
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"vocab_size": 99999, "hidden": 16}))
        out = tmp_path / "m.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--seed", "1", "--config", str(conf),
                   "--out", str(out)) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert "'vocab_size'" in errors[0] and "corpus" in errors[0]
        assert not out.exists()

    def test_deeply_nested_config_is_data_error(self, workdir, tmp_path,
                                                capsys):
        # json gives up on 100k levels with a RecursionError, not a
        # ValueError
        conf = tmp_path / "conf.json"
        conf.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "m.ckpt"
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--seed", "1", "--config", str(conf),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {conf}: JSON nested too deeply "
                                    f"to read"]
        assert not out.exists()

    def test_resolve_configs_desk_defaults(self):
        class Args:
            config = None
        model, train_config = resolve_configs(Args(), vocab_size=50)
        assert (model.n_layers, model.hidden, model.ffn_dim) == (4, 64, 128)
        assert (model.self_attn_heads, model.layer_attn_heads) == (4, 4)
        assert model.key_dim == 16 and model.max_len == 32
        assert train_config.learning_rate == pytest.approx(1e-3)
        assert (train_config.epochs, train_config.batch_size) == (10, 16)

    def test_every_flag_sets_its_field(self):
        args = build_parser().parse_args([
            "train", "--corpus", "c", "--out", "o", "--seed", "11",
            "--layers", "5", "--hidden", "24", "--self-attn-heads", "4",
            "--ffn-dim", "40", "--key-dim", "7", "--max-len", "20",
            "--head", "avgl", "--dropout", "0.15", "--attn-dropout", "0.25",
            "--learning-rate", "0.002", "--batch-size", "3",
            "--epochs", "9", "--heads", "6"])
        model, train_config = resolve_configs(args, vocab_size=50)
        assert (model.n_layers, model.hidden, model.self_attn_heads,
                model.ffn_dim, model.key_dim, model.max_len,
                model.layer_attn_heads) == (5, 24, 4, 40, 7, 20, 6)
        assert model.head_type == "avgl" and model.vocab_size == 50
        assert (train_config.learning_rate, train_config.batch_size,
                train_config.epochs, train_config.seed) == (0.002, 3, 9, 11)
        assert (model.dropout, model.attn_dropout) == (0.15, 0.25)

    @pytest.mark.parametrize("fields", [
        {"n_layers": 2.0}, {"batch_size": 4.5}, {"dropout": "0.1"},
        {"learning_rate": None}, {"layer_attn_heads": 0},
        {"learning_rate": 10**400}, {"adam_eps": 10**400}])
    def test_mistyped_config_is_data_error(self, workdir, tmp_path, capsys,
                                           fields):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(fields))
        assert run("train", "--corpus", str(workdir / "corpus.tsv"),
                   "--seed", "1", "--config", str(conf),
                   "--out", str(tmp_path / "m.ckpt")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and next(iter(fields)) in errors[0]

