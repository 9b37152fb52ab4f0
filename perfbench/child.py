"""One benchmark process: runs operations one at a time, in-process,
each starting after the previous one returned (a closed loop with one
client), then writes a JSON result.

Usage: python3 perfbench/child.py JOB_JSON RESULT_JSON

The job names the operations (gedlab CLI argument lists, or a
``build_corpus`` of a labeled file) and whether to trace.  gedlab must be
importable (the parent puts ``src`` on PYTHONPATH).
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import speed

# started before the program is imported, so that a set-up's time is
# normalised from the start; a traced process stops it (see main)
PROBE = speed.SpeedProbe()
PROBE.start()

import gedlab.cli  # noqa: E402
import gedlab.corpus  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


def blas_info() -> dict:
    """numpy's BLAS build and the thread count it runs with now."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "numpy": np.__version__,
            "python": platform.python_version()}


def run_op(op: dict, tracer: spans.Tracer | None):
    """Exit code of a CLI operation, or the LabeledCorpus build_corpus
    made.  Functions are looked up through their modules so a tracer's
    wrappers apply."""
    if "cli" in op:
        args = op["cli"]
        index = tracer.open("cli." + args[0]) if tracer else None
        try:
            return gedlab.cli.main(args)
        finally:
            if tracer:
                tracer.close(index)
    index = tracer.open("bench.build_corpus") if tracer else None
    try:
        sentences = gedlab.corpus.read_corpus_sentences(op["build_corpus"])
        return gedlab.corpus.build_corpus(sentences, max_len=op["max_len"])
    finally:
        if tracer:
            tracer.close(index)


def timing(started: float, ended: float) -> dict:
    """An operation's wall time, the probes that ran in it, and its time
    without them in reference seconds (see speed.py)."""
    window = PROBE.window(started, ended)
    return {"wall_s": ended - started, **window,
            "seconds": speed.reference_seconds(ended - started, window)}


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = spans.Tracer() if job["trace"] else None
    if tracer:
        # probes inside spans would count as the program's time
        PROBE.stop()
        PROBE.samples.clear()
        tracer.install()
    results = []
    for op in job["ops"]:
        started = time.perf_counter()
        try:
            value = run_op(op, tracer)
        except Exception:  # a crash is a failed operation, not a crashed run
            results.append({"label": op["label"],
                            **timing(started, time.perf_counter()),
                            "failures": [traceback.format_exc()]})
            continue
        timed = timing(started, time.perf_counter())
        try:
            with tracer.paused() if tracer else contextlib.nullcontext():
                failures, digest, n_sentences, n_words = checks.inspect(
                    op, value)
        except Exception:
            failures, digest, n_sentences, n_words = (
                [traceback.format_exc()], None, 0, 0)
        results.append({"label": op["label"], **timed,
                        "failures": failures, "digest": digest,
                        "sentences": n_sentences, "words": n_words})
    if tracer:
        tracer.uninstall()
    else:
        PROBE.stop()
    result = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "provenance": blas_info(),
        "spans": tracer.spans if tracer else None,
        "trace_overhead_ns": tracer.overhead_ns() if tracer else None,
        # every probe of the process, for its set-up time
        "speed": PROBE.window(0.0, time.perf_counter()),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
