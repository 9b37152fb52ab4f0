"""Span recording for the traced run, and the per-layer metrics built
from the spans.

The tracer wraps public gedlab functions at the module attribute their
caller looks them up through (``gedlab.training.encode_batch`` is the
name ``batch_loss`` calls), so no file of the program changes.  Spans
are kept in memory as ``[name, start_ns, end_ns, parent, attrs]`` and
written out by the caller when the process ends.

This module imports nothing from gedlab at load time: the parent process
uses ``layer_metrics`` without loading the program.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import time

# (module, attribute, span name).  Each entry is the lookup its caller
# makes; the span name is "<layer>.<operation>".
WRAPS = [
    ("gedlab.cli", "generate_synthetic_pairs", "corpus.generate"),
    ("gedlab.cli", "dp_align_label", "corpus.align"),
    ("gedlab.cli", "build_corpus", "corpus.tokenize"),
    ("gedlab.corpus", "build_corpus", "corpus.tokenize"),
    ("gedlab.cli", "write_pair_file", "corpus.io"),
    ("gedlab.cli", "read_pair_file", "corpus.io"),
    ("gedlab.cli", "write_corpus", "corpus.io"),
    ("gedlab.cli", "read_corpus_sentences", "corpus.io"),
    ("gedlab.corpus", "read_corpus_sentences", "corpus.io"),
    ("gedlab.cli", "write_vocab_file", "corpus.io"),
    ("gedlab.cli", "read_vocab_file", "corpus.io"),
    ("gedlab.cli", "train", "training.train"),
    ("gedlab.training", "batch_loss", "training.batch_loss"),
    ("gedlab.training", "adam_step", "training.adam"),
    ("gedlab.cli", "save_checkpoint", "training.save"),
    ("gedlab.cli", "load_checkpoint", "training.load"),
    ("gedlab.training", "encode_batch", "encoder.encode_batch"),
    ("gedlab.model", "encode", "encoder.encode"),
    ("gedlab.model", "mhmla_forward", "heads.mhmla"),
    ("gedlab.model", "layer_attention_weights", "heads.layer_attention"),
    ("gedlab.evaluation", "predict_word_probs", "model.predict"),
    ("gedlab.evaluation", "word_attention", "model.word_attention"),
    ("gedlab.training", "backward", "tensor.backward"),
    ("gedlab.training", "cross_entropy", "tensor.loss"),
    ("gedlab.cli", "evaluate", "evaluation.evaluate"),
    ("gedlab.cli", "attention_summary", "evaluation.attention_summary"),
]

# the tracing-overhead probe: calls per round, rounds
PROBE_CALLS = 20000
PROBE_REPEATS = 5

# percentiles tried for *_tail, highest first
TAIL_LEVELS = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


class Tracer:
    """Nested spans of one thread, in the order they opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.hook_ns = 0          # time spent reading the tape for spans
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._paused = False

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, attrs])
        self._stack.append(index)
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        if attrs:
            span[4] = {**(span[4] or {}), **attrs}

    @contextlib.contextmanager
    def paused(self):
        """Wrapped calls made inside run unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _hook(self, hook):
        """hook()'s span attributes; its time is added to hook_ns."""
        if hook is None:
            return None
        started = time.perf_counter_ns()
        try:
            return hook()
        finally:
            self.hook_ns += time.perf_counter_ns() - started

    def _traced(self, original, span_name: str, before=None, after=None):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            index = self.open(span_name, self._hook(before))
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index, self._hook(after))

        return traced

    def wrap(self, module_name: str, attr: str, span_name: str,
             before=None, after=None) -> None:
        """Replace module.attr by a version that records a span.
        before() and after() return attributes stored on the span."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr,
                self._traced(original, span_name, before, after))
        self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap every WRAPS entry; the tape is read at each backward and
        after each evaluate/attention_summary."""
        graph = importlib.import_module("gedlab.tensor").active_graph

        def tape_now():
            nodes = graph().nodes
            return {"nodes": len(nodes),
                    "bytes": sum(n.data.nbytes for n in nodes)}

        def tape_left():
            return {"nodes_left": len(graph().nodes)}

        for module_name, attr, span_name in WRAPS:
            before = tape_now if span_name == "tensor.backward" else None
            after = tape_left if span_name.startswith("evaluation.") else None
            self.wrap(module_name, attr, span_name, before, after)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def call_cost_ns(self) -> float:
        """Traced-minus-untraced time of one call, median over
        PROBE_REPEATS rounds of PROBE_CALLS calls each way, measured on
        a wrapped no-op in this process.  The probe's spans are
        dropped."""
        def noop():
            return None

        probe = self._traced(noop, "trace.probe")
        kept = len(self.spans)
        costs = []
        for _ in range(PROBE_REPEATS):
            started = time.perf_counter_ns()
            for _ in range(PROBE_CALLS):
                noop()
            middle = time.perf_counter_ns()
            for _ in range(PROBE_CALLS):
                probe()
            ended = time.perf_counter_ns()
            costs.append(((ended - middle) - (middle - started))
                         / PROBE_CALLS)
            del self.spans[kept:]
        return statistics.median(costs)

    def overhead_ns(self) -> float:
        """Time tracing added to the calls recorded so far: one probe
        call's cost per span, plus the tape reads."""
        return len(self.spans) * self.call_cost_ns() + self.hook_ns


# ----------------------------------------------------------- statistics

def _rank(n: int, level: float) -> int:
    """1-based nearest rank of percentile `level` among n samples."""
    return max(1, math.ceil(round(level * n, 6) / 100.0))


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(len(sorted_values), level) - 1]


def distribution(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples
    beyond it (the median when there are fewer than twenty), plus the
    sample count.  An empty list gives zeros."""
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    ordered = sorted(values)
    level = next((p for p in TAIL_LEVELS
                  if n - _rank(n, p) >= MIN_BEYOND_TAIL), 50.0)
    return {"p50": percentile(ordered, 50.0),
            "tail": percentile(ordered, level), "tail_pct": level, "n": n}


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the time its child spans cover.
    Children of one span never overlap (one thread), so their
    durations add up."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def in_training_step(spans: list[list]) -> list[bool]:
    """Per span: whether it runs inside a training batch_loss.  A parent
    always opens before its children."""
    inside: list[bool] = []
    for _, _, _, parent, _ in spans:
        inside.append(parent >= 0 and (inside[parent] or spans[parent][0]
                                       == "training.batch_loss"))
    return inside


def step_times(spans: list[list]) -> list[int]:
    """Training steps, each from a batch_loss start to the end of the
    adam_step that follows it (backward sits between the two)."""
    steps = []
    started = None
    for name, start, end, _, _ in spans:
        if name == "training.batch_loss":
            started = start
        elif name == "training.adam" and started is not None:
            steps.append(end - started)
            started = None
    return steps


# name -> unit; the order is the order of the report
LAYER_UNITS = {
    "cli.self_ms": "ms",
    "corpus.generate_ms": "ms",
    "corpus.align_us_p50": "us",
    "corpus.align_us_tail": "us",
    "corpus.align_calls": "count",
    "corpus.tokenize_ms": "ms",
    "corpus.io_ms": "ms",
    "encoder.batch_ms_p50": "ms",
    "encoder.batch_ms_tail": "ms",
    "encoder.batch_calls": "count",
    "encoder.sentence_ms_p50": "ms",
    "encoder.sentence_ms_tail": "ms",
    "encoder.sentence_calls": "count",
    "encoder.busy_share": "ratio",
    "heads.batch_ms_p50": "ms",
    "heads.batch_ms_tail": "ms",
    "heads.batch_calls": "count",
    "heads.sentence_ms_p50": "ms",
    "heads.sentence_ms_tail": "ms",
    "heads.sentence_calls": "count",
    "heads.busy_share": "ratio",
    "model.predict_ms_p50": "ms",
    "model.predict_ms_tail": "ms",
    "model.predict_calls": "count",
    "model.word_attention_ms_p50": "ms",
    "model.word_attention_ms_tail": "ms",
    "model.word_attention_calls": "count",
    "tensor.backward_ms_p50": "ms",
    "tensor.backward_ms_tail": "ms",
    "tensor.backward_share": "ratio",
    "tensor.loss_ms_p50": "ms",
    "tensor.tape_nodes": "count",
    "tensor.tape_mb": "MB",
    "tensor.tape_nodes_left": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_tail": "ms",
    "training.forward_ms_p50": "ms",
    "training.adam_ms_p50": "ms",
    "training.adam_share": "ratio",
    "training.steps": "count",
    "training.save_ms": "ms",
    "training.load_ms": "ms",
    "evaluation.evaluate_s": "s",
    "evaluation.attention_summary_s": "s",
    "evaluation.self_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list], overhead_ns: float) -> dict:
    """Per-layer numbers of one traced cycle.  overhead_ns is the time
    tracing added to it (Tracer.overhead_ns).  A layer the workload never
    calls reports zeros."""
    ms, us, mb = 1e-6, 1e-3, 1.0 / (1 << 20)
    durations: dict[str, list[int]] = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
    own = self_times(spans)

    def each(*names):
        return [d for n in names for d in durations.get(n, [])]

    def total(*names):
        return sum(each(*names))

    def attr_values(name, key):
        return [s[4][key] for s in spans if s[0] == name and s[4]]

    top = sum(end - start for _, start, end, parent, _ in spans
              if parent < 0)
    out: dict[str, float] = {}

    def put_distribution(prefix, values, scale):
        d = distribution([v * scale for v in values])
        out[prefix + "_p50"] = d["p50"]
        out[prefix + "_tail"] = d["tail"]
        return d["n"]

    out["cli.self_ms"] = sum(o for s, o in zip(spans, own)
                             if s[0].startswith("cli.")) * ms

    out["corpus.generate_ms"] = total("corpus.generate") * ms
    out["corpus.align_calls"] = put_distribution(
        "corpus.align_us", each("corpus.align"), us)
    out["corpus.tokenize_ms"] = total("corpus.tokenize") * ms
    out["corpus.io_ms"] = total("corpus.io") * ms

    # one training step's batch forward and one sentence's inference
    # forward differ by orders of magnitude: keep them apart
    batch = in_training_step(spans)
    for layer, names in (("encoder", ("encoder.encode_batch",
                                      "encoder.encode")),
                         ("heads", ("heads.mhmla", "heads.layer_attention"))):
        for path, wanted in (("batch", True), ("sentence", False)):
            values = [end - start for (name, start, end, _, _), b
                      in zip(spans, batch) if name in names and b == wanted]
            out[f"{layer}.{path}_calls"] = put_distribution(
                f"{layer}.{path}_ms", values, ms)
        out[f"{layer}.busy_share"] = _ratio(total(*names), top)

    out["model.predict_calls"] = put_distribution(
        "model.predict_ms", each("model.predict"), ms)
    out["model.word_attention_calls"] = put_distribution(
        "model.word_attention_ms", each("model.word_attention"), ms)

    put_distribution("tensor.backward_ms", each("tensor.backward"), ms)
    out["tensor.backward_share"] = _ratio(total("tensor.backward"), top)
    out["tensor.loss_ms_p50"] = distribution(
        [v * ms for v in each("tensor.loss")])["p50"]
    out["tensor.tape_nodes"] = distribution(
        attr_values("tensor.backward", "nodes"))["p50"]
    out["tensor.tape_mb"] = distribution(
        attr_values("tensor.backward", "bytes"))["p50"] * mb
    out["tensor.tape_nodes_left"] = max(
        attr_values("evaluation.evaluate", "nodes_left")
        + attr_values("evaluation.attention_summary", "nodes_left"),
        default=0)

    steps = step_times(spans)
    out["training.steps"] = put_distribution("training.step_ms", steps, ms)
    out["training.forward_ms_p50"] = distribution(
        [v * ms for v in each("training.batch_loss")])["p50"]
    out["training.adam_ms_p50"] = distribution(
        [v * ms for v in each("training.adam")])["p50"]
    out["training.adam_share"] = _ratio(total("training.adam"), sum(steps))
    out["training.save_ms"] = total("training.save") * ms
    out["training.load_ms"] = total("training.load") * ms

    evaluation = ("evaluation.evaluate", "evaluation.attention_summary")
    out["evaluation.evaluate_s"] = total("evaluation.evaluate") * 1e-9
    out["evaluation.attention_summary_s"] = (
        total("evaluation.attention_summary") * 1e-9)
    out["evaluation.self_share"] = _ratio(
        sum(o for s, o in zip(spans, own) if s[0] in evaluation),
        total(*evaluation))

    out["trace.overhead_s"] = overhead_ns * 1e-9
    out["trace.overhead_share"] = _ratio(overhead_ns, top - overhead_ns)
    return {name: out[name] for name in LAYER_UNITS}
