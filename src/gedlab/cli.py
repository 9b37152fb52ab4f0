"""Command-line pipeline: corpus generation and labeling, training,
evaluation, attention export, gradient checking, and the head sweep.

Exit codes: 0 success, 1 usage error, 2 data or model error.  All
diagnostics go to stderr; data goes to files or stdout.  Every run that
produces files also writes a <out>.manifest.json run record; file-free
commands print their record to stdout instead.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

try:
    import resource
except ImportError:     # not on Windows
    resource = None

from .corpus import (
    LABEL_ERR, LABEL_OK, TokenizedSentence, _synthetic_pairs,
    _trusted_sentence, align_labels, build_corpus, merge_annotator_labels,
    read_corpus_sentences, read_pair_file, read_vocab_file, write_corpus,
    write_pair_file, write_vocab_file,
)
# label aligns a whole file with align_labels and gen writes pairs as it
# draws them, so neither calls these, but perfbench/spans.py still
# traces the names gedlab.cli.dp_align_label and generate_synthetic_pairs
from .corpus import dp_align_label, generate_synthetic_pairs  # noqa: F401
from .encoder import ModelConfig
from .evaluation import attention_summary, evaluate, summary_to_csv
from .model import init_model
from .tensor import finite_diff_check, reset_graph
from .training import (
    TrainConfig, batch_loss, load_checkpoint, save_checkpoint, train,
)

log = logging.getLogger(__name__)

# where the CLI's from-scratch desk scale departs from the dataclass
# defaults, by field name; those target fine-tuning a pretrained encoder:
# too slow and too regularized for a synthetic corpus the generator can
# extend at will.  key_dim is pinned so --heads leaves it at 16.
DESK = dict(key_dim=16, dropout=0.0, attn_dropout=0.0,
            learning_rate=1e-3, batch_size=16, epochs=10)
_MODEL_FIELDS = {f.name for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
_FIELDS = _MODEL_FIELDS | _TRAIN_FIELDS

# glibc's mallopt parameters (malloc.h) and the values main gives them: a
# freed heap top is kept unless it exceeds 1 GiB, and blocks under 32 MiB
# (every array of a desk-scale step) come from the heap, not from mmap
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD = 1 << 30
MMAP_THRESHOLD = 32 << 20
# whether this process's main() kept the freed heap; run records say so
_heap_kept = False


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here wants 1."""

    def __init__(self, *args, **kwargs):
        # no prefix matching: --out must not silently mean --out-dir
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _keep_freed_heap() -> bool:
    """Stop glibc from handing freed heap back to the kernel, so a
    training step reuses the pages the last one freed instead of
    faulting them in afresh.  Setting the trim threshold alone would
    also freeze glibc's dynamic mmap threshold at 128 KiB and map every
    larger array anew, so both are set.  True when both mallopt calls
    succeeded; False, and nothing done, where the C library is not
    glibc (macOS, Windows, musl).  Never raises."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    trim = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mmap = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    return trim == 1 and mmap == 1


def numeric_environment() -> dict:
    """What besides the inputs decides a run's last bits: the numpy
    version, the BLAS numpy was built with, and the BLAS thread setting
    (None when the count was left to the library).  numpy before 1.26
    cannot report its BLAS as data; the BLAS fields are None there.
    `heap_kept` says whether main() set the allocator to keep freed
    heap (_keep_freed_heap); it decides speed, not bits."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:   # no mode argument: it would only print
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS"))
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "heap_kept": _heap_kept}


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    inputs: dict
    outputs: dict
    duration_seconds: float
    checksums: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    environment: dict = field(default_factory=numeric_environment)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(manifest: RunManifest, out_path: str) -> str:
    for name, p in manifest.outputs.items():
        manifest.checksums[name] = _sha256(p)
    path = f"{out_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    log.info("manifest written to %s", path)
    return path


def resolve_configs(args, vocab_size: int) -> tuple[ModelConfig, TrainConfig]:
    """defaults < DESK < config file < explicit flags.  Each flag's dest
    is the field it sets; the two configs share no field name."""
    values = dict(DESK)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.config}: JSON nested too deeply "
                                 f"to read") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON "
                             f"object")
        for key, value in loaded.items():
            if key not in _FIELDS:
                raise ValueError(f"config file field {key!r} matches no "
                                 f"ModelConfig or TrainConfig field")
            if key == "vocab_size":
                raise ValueError("config file field 'vocab_size' cannot be "
                                 "set: the corpus's vocabulary sets it")
            values[key] = value
    for name in _FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    values["vocab_size"] = vocab_size
    return (ModelConfig(**{k: v for k, v in values.items()
                           if k in _MODEL_FIELDS}),
            TrainConfig(**{k: v for k, v in values.items()
                           if k in _TRAIN_FIELDS}))


# ------------------------------------------------------------- subcommands

def cmd_gen(args) -> int:
    started = time.monotonic()
    # a bad argument fails here, before the file is opened
    pairs = _synthetic_pairs(args.n, seed=args.seed,
                             error_rate=args.error_rate)
    write_pair_file(pairs, args.out)
    log.info("wrote %d pairs to %s", args.n, args.out)
    manifest = RunManifest(
        command="gen",
        config={"n": args.n, "error_rate": args.error_rate},
        seed=args.seed, inputs={}, outputs={"pairs": args.out},
        duration_seconds=time.monotonic() - started,
        metrics={"n_pairs": args.n})
    _write_manifest(manifest, args.out)
    return 0


def cmd_label(args) -> int:
    started = time.monotonic()
    annotations = [read_pair_file(p) for p in args.pairs]
    first = annotations[0]
    for k, pairs in enumerate(annotations[1:], start=2):
        if len(pairs) != len(first):
            raise ValueError(
                f"{args.pairs[k - 1]}: {len(pairs)} pairs, expected "
                f"{len(first)} (all annotator files must align)")
        for i, (a, b) in enumerate(zip(first, pairs)):
            if a.source != b.source:
                raise ValueError(
                    f"{args.pairs[k - 1]}: pair {i + 1} source differs "
                    f"from the first annotator's")
    marks = [align_labels([(p.source, p.corrected) for p in pairs])
             for pairs in annotations]
    # checked pairs' sources with the aligner's labels: nothing to check
    merged = (marks[0] if len(marks) == 1 else
              [merge_annotator_labels(labels) for labels in zip(*marks)])
    # the pairs are this command's own: each sentence takes its source
    sentences = [_trusted_sentence(pair.source, labels)
                 for pair, labels in zip(first, merged)]
    write_corpus(sentences, args.out)
    n_err = sum(s.labels.count("i") for s in sentences)
    log.info("labeled %d sentences (%d error tokens) to %s",
             len(sentences), n_err, args.out)
    manifest = RunManifest(
        command="label", config={"n_annotators": len(annotations)},
        seed=None,
        inputs={f"pairs_{k}": p for k, p in enumerate(args.pairs)},
        outputs={"corpus": args.out},
        duration_seconds=time.monotonic() - started,
        metrics={"n_sentences": len(sentences), "n_error_tokens": n_err})
    _write_manifest(manifest, args.out)
    return 0


def _load_training_data(args):
    """Resolve the configs once, read the corpus and build --dev (or None)
    on its vocabulary, so a bad dev file fails before any training; the
    model config is sized to that vocabulary."""
    model_config, train_config = resolve_configs(args, vocab_size=4)
    sentences = read_corpus_sentences(args.corpus)
    if not sentences:
        raise ValueError(f"{args.corpus}: corpus is empty")
    corpus = build_corpus(sentences, max_len=model_config.max_len)
    dev = None
    if args.dev:
        dev = build_corpus(read_corpus_sentences(args.dev),
                           vocab=corpus.vocab, max_len=model_config.max_len)
        if not dev.tokenized:
            raise ValueError(f"{args.dev}: corpus has no word positions to "
                             f"score")
    model_config = dataclasses.replace(model_config,
                                       vocab_size=corpus.vocab.n_pieces)
    return model_config, train_config, corpus, dev


def _train_and_score(corpus, dev, model_config, train_config, ckpt):
    """Train, save to ckpt and, given a dev corpus, score the RELOADED
    model, so `eval` on the checkpoint reproduces the numbers exactly.
    Also returns the minor page faults train() took (None where the
    resource module is missing)."""
    faults = _minor_faults()
    result = train(corpus, model_config, train_config)
    if faults is not None:
        faults = _minor_faults() - faults
    save_checkpoint(result.model, ckpt)
    report = None
    if dev is not None:
        report = evaluate(load_checkpoint(ckpt), dev, seed=train_config.seed)
    return result, report, faults


def _minor_faults() -> int | None:
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _max_rss_mb() -> float | None:
    """Peak resident set size of this process so far, in MiB."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def cmd_train(args) -> int:
    started = time.monotonic()
    model_config, train_config, corpus, dev = _load_training_data(args)
    result, report, faults = _train_and_score(corpus, dev, model_config,
                                              train_config, args.out)
    vocab_path = f"{args.out}.vocab"
    write_vocab_file(corpus.vocab, vocab_path)
    log.info("checkpoint %s, vocabulary %s", args.out, vocab_path)
    metrics = {"epoch_losses": result.epoch_losses,
               "final_loss": result.epoch_losses[-1], "steps": result.n_steps,
               "dropped_words": corpus.n_dropped_words,
               "minor_faults": faults, "max_rss_mb": _max_rss_mb()}
    inputs = {"corpus": args.corpus}
    if report is not None:
        metrics["dev"] = report.to_dict()
        metrics["dev_dropped_words"] = dev.n_dropped_words
        inputs["dev"] = args.dev
        log.info("dev F0.5 %.4f (precision %.4f, recall %.4f)",
                 report.f_half, report.precision, report.recall)
    manifest = RunManifest(
        command="train",
        config={"model": result.model.config.to_dict(),
                "train": train_config.to_dict()},
        seed=train_config.seed, inputs=inputs,
        outputs={"checkpoint": args.out, "vocab": vocab_path},
        duration_seconds=time.monotonic() - started, metrics=metrics)
    _write_manifest(manifest, args.out)
    return 0


def _load_model_corpus(args):
    model = load_checkpoint(args.checkpoint)
    vocab = read_vocab_file(args.vocab)
    if vocab.n_pieces != model.config.vocab_size:
        raise ValueError(
            f"{args.vocab}: {vocab.n_pieces} pieces, checkpoint expects "
            f"{model.config.vocab_size}")
    corpus = build_corpus(read_corpus_sentences(args.corpus), vocab=vocab,
                          max_len=model.config.max_len)
    return model, corpus


def _write_output(args, started, model, corpus, text, kind, metrics) -> int:
    """Write text to --out plus its run record, or to stdout."""
    if not args.out:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    manifest = RunManifest(
        command=args.command, config={"model": model.config.to_dict()},
        seed=getattr(args, "seed", None),
        inputs={"checkpoint": args.checkpoint, "vocab": args.vocab,
                "corpus": args.corpus},
        outputs={kind: args.out},
        duration_seconds=time.monotonic() - started,
        metrics={**metrics, "dropped_words": corpus.n_dropped_words})
    _write_manifest(manifest, args.out)
    return 0


def cmd_eval(args) -> int:
    started = time.monotonic()
    model, corpus = _load_model_corpus(args)
    report = evaluate(model, corpus, seed=args.seed)
    log.info("F0.5 %.4f on %d sentences / %d tokens",
             report.f_half, report.n_sentences, report.n_tokens)
    return _write_output(args, started, model, corpus, report.to_json(),
                         "report", report.to_dict())


def cmd_attn(args) -> int:
    started = time.monotonic()
    model, corpus = _load_model_corpus(args)
    summary = attention_summary(model, corpus)
    return _write_output(args, started, model, corpus,
                         summary_to_csv(summary), "summary",
                         {"n_tokens": summary.n_tokens})


def random_probe_batch(config: ModelConfig, n_sentences: int,
                       rng: np.random.Generator) -> list[TokenizedSentence]:
    batch = []
    for _ in range(n_sentences):
        length = int(rng.integers(max(1, config.max_len // 2),
                                  config.max_len + 1))
        ids = rng.integers(4, config.vocab_size, size=length)
        first = sorted(rng.choice(length, size=max(1, length // 2),
                                  replace=False).tolist())
        targets = rng.integers(0, config.n_classes, size=len(first)).tolist()
        batch.append(TokenizedSentence(
            words=["w"] * len(first),
            labels=[LABEL_ERR if t else LABEL_OK for t in targets],
            sub_ids=ids.tolist(), first_sub_index=first))
    return batch


def cmd_gradcheck(args) -> int:
    started = time.monotonic()
    if args.vocab_size < 5:  # probe ids are drawn above the 4 reserved
        raise ValueError(f"--vocab-size must be >= 5, got {args.vocab_size}")
    config = ModelConfig(
        n_layers=args.layers, hidden=args.hidden,
        self_attn_heads=args.heads, layer_attn_heads=args.heads,
        ffn_dim=2 * args.hidden, vocab_size=args.vocab_size,
        max_len=args.max_len, dropout=0.0, attn_dropout=0.0)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.sentences < 1:
        raise ValueError(f"--sentences must be >= 1, got {args.sentences}")
    rng = np.random.default_rng(args.seed)
    # wide init keeps live-path gradients above finite-difference noise
    model = init_model(config, rng, init_std=0.5)
    batch = random_probe_batch(config, args.sentences, rng)

    def forward():
        return batch_loss(model, batch)

    reset_graph()
    report = finite_diff_check(forward, model.named,
                               eps=args.eps, tol=args.tol)
    result = {
        "passed": report.passed,
        "max_rel_err": report.max_rel_err,
        "worst_param": report.worst_param,
        "n_checked": report.n_checked,
        "eps": args.eps, "tol": args.tol,
        "config": config.to_dict(), "seed": args.seed,
        "duration_seconds": time.monotonic() - started,
        "environment": numeric_environment(),
    }
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
    if not report.passed:
        log.error("gradient check failed: max rel err %.3e at %s",
                  report.max_rel_err, report.worst_param)
        return 2
    log.info("gradient check passed: max rel err %.3e over %d components",
             report.max_rel_err, report.n_checked)
    return 0


def cmd_sweep(args) -> int:
    started = time.monotonic()
    model_base, train_config, corpus, dev = _load_training_data(args)
    # a bad J fails here, before anything is written
    configs = [(j, dataclasses.replace(model_base, layer_attn_heads=j))
               for j in args.heads]
    os.makedirs(args.out_dir, exist_ok=True)
    vocab_path = os.path.join(args.out_dir, "vocab.txt")
    write_vocab_file(corpus.vocab, vocab_path)
    outputs = {"vocab": vocab_path}
    metrics = {"dropped_words": corpus.n_dropped_words,
               "dev_dropped_words": dev.n_dropped_words}
    for j, model_config in configs:
        ckpt = os.path.join(args.out_dir, f"model_j{j}.ckpt")
        result, report, _ = _train_and_score(corpus, dev, model_config,
                                             train_config, ckpt)
        report_path = os.path.join(args.out_dir, f"report_j{j}.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        outputs[f"checkpoint_j{j}"] = ckpt
        outputs[f"report_j{j}"] = report_path
        metrics[f"j{j}"] = {"f_half": report.f_half,
                            "final_loss": result.epoch_losses[-1]}
        log.info("J=%d  dev F0.5 %.4f", j, report.f_half)
    manifest = RunManifest(
        command="sweep",
        config={"head_counts": args.heads, "model": model_base.to_dict(),
                "train": train_config.to_dict()},
        seed=args.seed,
        inputs={"corpus": args.corpus, "dev": args.dev},
        outputs=outputs,
        duration_seconds=time.monotonic() - started, metrics=metrics)
    _write_manifest(manifest, os.path.join(args.out_dir, "sweep"))
    return 0


def int_list(text: str) -> list[int]:
    """argparse type of sweep's --heads: comma-separated integers.  A
    bad list is a usage error, "argument --heads: invalid int_list", and
    so are an empty item and a repeated count, which would train and
    write one J twice."""
    items = text.split(",")
    if not all(x.strip() for x in items):
        raise argparse.ArgumentTypeError(f"{text!r} has an empty item")
    values = [int(x) for x in items]
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(
            f"{text!r} lists a head count more than once")
    return values


# ------------------------------------------------------------------ wiring

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, dest="n_layers", metavar="LAYERS",
                   help="encoder layer count")
    p.add_argument("--hidden", type=int, help="hidden width")
    p.add_argument("--self-attn-heads", type=int,
                   help="self-attention heads per block")
    p.add_argument("--ffn-dim", type=int, help="feed-forward width")
    p.add_argument("--key-dim", type=int, help="layer-attention key width")
    p.add_argument("--max-len", type=int, help="sub-token budget per sentence")
    p.add_argument("--head", dest="head_type",
                   choices=["final", "avgl", "mhmla"],
                   help="classification head")
    p.add_argument("--dropout", type=float, help="dropout rate")
    p.add_argument("--attn-dropout", type=float,
                   help="attention-weight dropout rate")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--config", help="JSON file of config fields")


def build_parser() -> _Parser:
    parser = _Parser(prog="gedlab",
                     description="Sequence-labeling error-detection lab.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    parser.commands = subparsers.choices

    p = subparsers.add_parser("gen",
                              help="generate synthetic sentence pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--error-rate", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = subparsers.add_parser("label",
                              help="align pairs into a labeled corpus")
    p.add_argument("--pairs", action="append", required=True,
                   help="annotator pair file; repeat to union-merge")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = subparsers.add_parser("train", help="train a detector")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev", help="held-out corpus scored after training")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--heads", type=int, dest="layer_attn_heads",
                   metavar="HEADS", help="layer-attention heads")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = subparsers.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report path; stdout when omitted")
    p.set_defaults(func=cmd_eval)

    p = subparsers.add_parser("attn",
                              help="export mean depth-attention weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="CSV path; stdout when omitted")
    p.set_defaults(func=cmd_attn)

    p = subparsers.add_parser("gradcheck",
                              help="finite-difference check on a fresh model")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--heads", type=int, default=2,
                   help="sets self- and layer-attention head counts")
    p.add_argument("--eps", type=float, default=1e-5,
                   help="finite-difference step; if the check fails with a "
                        "max gradient near 1e-7, retry with 1e-4: that is "
                        "rounding noise in the difference quotient, not a "
                        "wrong derivative")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab-size", type=int, default=20)
    p.add_argument("--sentences", type=int, default=2)
    p.add_argument("--max-len", type=int, default=10)
    p.set_defaults(func=cmd_gradcheck)

    p = subparsers.add_parser("sweep",
                              help="train and score one model per J")
    p.add_argument("--heads", type=int_list, required=True,
                   help="comma-separated layer-attention head counts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    # the CLI owns its process; library callers keep their own allocator
    global _heap_kept
    _heap_kept = _keep_freed_heap()
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        # the subcommand's usage line enumerates its valid flags
        chosen = next((parser.commands[a] for a in argv
                       if a in parser.commands), parser)
        sys.stderr.write(chosen.format_usage())
        return 1
    except (ValueError, OSError, FloatingPointError, KeyError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
