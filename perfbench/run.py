"""gedlab benchmark: end-to-end metrics from real ``gedlab`` commands, or
per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs three times, each in a fresh process (once before the
measured part and twice after it), and ``setup_s`` is the median.
Every gated time is in reference seconds (see speed.py); the wall-clock
figures are printed too.  The
measured part runs whole cycles of the workload, each in a fresh
process, and starts another only while it is expected to end within
``--seconds`` (always at least one).  With ``--trace 1`` the run
makes one untraced cycle and one traced cycle instead, reports the
per-layer metrics of the traced one, and fails every operation whose
outputs differ between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit.  Everything the run did, with its
provenance, is written to ``work_dir(workload, seed, trace)``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join("src", "gedlab")
WORK_ROOT = ".bench_work"
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0     # the whole run, set-up included
# one BLAS thread: on a 2-core share of a busy host a second thread
# gained about 7% on train_b64 but made its time follow the other core's
# load, which the probe on the main thread does not see (README.md)
BLAS_THREADS = "1"

END_TO_END = {"setup_s": "s", "words_per_s": "words/s", "peak_rss_mb": "MB"}
# the per-workload figures README.md names, printed but not gated
REPORTED = {"wall_words_per_s": "words/s", "wall_setup_s": "s",
            "host_speed": "ratio", "train_words_per_s": "words/s", "loss_at_end": "nats",
            "dev_f_half": "ratio", "eval_sents_per_s": "sentences/s",
            "attn_sents_per_s": "sentences/s",
            "corpus_sents_per_s": "sentences/s", "failed_share": "ratio"}


def work_dir(workload: str, seed: int, trace: bool) -> str:
    return os.path.join(WORK_ROOT, f"{workload}-s{seed}-t{int(trace)}")


class Budget:
    """Deadline of the whole run; children get what is left of it."""

    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def run_child(ops: list[dict], trace: bool, directory: str,
              budget: Budget) -> tuple[dict, float]:
    """Run ops in a fresh process; (its result, wall seconds from start
    to exit).  A child that crashes or times out fails every op."""
    os.makedirs(directory, exist_ok=True)
    job = os.path.join(directory, "job.json")
    result_path = os.path.join(directory, "result.json")
    with open(job, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "trace": trace}, fh)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]]
                                    if env.get("PYTHONPATH") else []))
    with open(os.path.join(directory, "log.txt"), "w") as log:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), job,
             result_path], stdout=log, stderr=log, env=env)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to
        # 50 ms, which would round every wall time to them
        expired = threading.Event()

        def expire():
            expired.set()
            child.kill()

        timer = threading.Timer(budget.left(), expire)
        timer.start()
        try:
            code = child.wait()
        finally:
            timer.cancel()
            if child.poll() is None:   # interrupted: leave no process
                child.kill()
                child.wait()
        wall = time.perf_counter() - started
    if expired.is_set():
        code = "timeout"
    if code == 0:
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), wall
    failure = f"benchmark process ended with {code}; see {directory}/log.txt"
    return {"ops": [{"label": op["label"], "seconds": 0.0,
                     "failures": [failure]} for op in ops],
            "peak_rss_mb": 0.0, "provenance": {}, "spans": None,
            "speed": {}}, wall


def compare_digests(reference: dict, other: dict, why: str) -> None:
    """Mark every op of `other` whose outputs differ from `reference`."""
    for ref, op in zip(reference["ops"], other["ops"]):
        if (not ref["failures"] and not op["failures"]
                and ref.get("digest") != op.get("digest")):
            op["failures"].append(f"{op['label']}: outputs differ from "
                                  f"the {why}")


def provenance(seed: int, child: dict) -> dict:
    """Machine, toolchain and program identity of this run."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(".git"):
        found = subprocess.run(["git", "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **child,
            "seed": seed, "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def throughput(cycles: list[dict], clock: str = "seconds") -> float:
    """Words of the "words" operations over the time of the "words" and
    "time" operations (see workloads.py), in reference seconds or, with
    clock="wall_s", wall seconds."""
    words = seconds = 0.0
    for cycle in cycles:
        for op in cycle["ops"]:
            if op.get("rate") == "words":
                words += op.get("words", 0)
            if op.get("rate") in ("words", "time"):
                seconds += op.get(clock, 0.0)
    return words / seconds if seconds else 0.0


def host_speed(cycles: list[dict]) -> float:
    """Reference probe time over the mean probe time of the measured
    operations: above 1 on a host faster than the reference."""
    probes = probe_s = 0.0
    for cycle in cycles:
        for op in cycle["ops"]:
            if op.get("rate"):
                probes += op.get("probes", 0)
                probe_s += op.get("probe_s", 0.0)
    return speed.REF_PROBE_S * probes / probe_s if probe_s else 0.0


def reported(cycles: list[dict]) -> dict:
    """The per-workload figures.  Cycles reproduce each other's outputs,
    so the first cycle's outputs stand for all."""
    ops = {op["label"]: op for op in cycles[0]["ops"]}

    def rate(*labels):
        """Sentences of the last of `labels` over the time of all."""
        timed = [op for c in cycles for op in c["ops"]
                 if op["label"] in labels]
        return (sum(op["sentences"] for op in timed
                    if op["label"] == labels[-1])
                / sum(op["seconds"] for op in timed))

    out = {}
    if "train" in ops:
        out["train_words_per_s"] = throughput(cycles)
        out["loss_at_end"] = ops["train"]["digest"]["epoch_losses"][-1]
    if "eval" in ops:
        out["dev_f_half"] = ops["eval"]["digest"]["f_half"]
        if "train" not in ops:
            out["eval_sents_per_s"] = rate("eval")
    if "attn" in ops:
        out["attn_sents_per_s"] = rate("attn")
    if "build_corpus" in ops:
        out["corpus_sents_per_s"] = rate("gen", "label", "build_corpus")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, work: str | None = None) -> dict:
    """One benchmark run; returns the result record (see main).

    The first set-up makes the inputs.  The other set-ups repeat it after
    the cycles, so the set-up samples fall some seconds apart on a
    machine whose speed drifts."""
    budget = Budget(RUN_BUDGET_S)
    work = work or work_dir(workload, seed, trace)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = workloads.build(workload, seed, work, scale)
    first, wall = run_child(spec.setup, False, os.path.join(work, "setup0"),
                            budget)
    setups, walls = [first], [wall]
    cycles = []
    if not any(op["failures"] for op in first["ops"]):
        cycles = run_cycles(spec, seconds, trace, work, budget)
    for k in range(1, 1 if trace else SETUP_REPEATS):
        result, wall = run_child(spec.setup, False,
                                 os.path.join(work, f"setup{k}"), budget)
        compare_digests(first, result, "first set-up")
        setups.append(result)
        walls.append(wall)
    return summarize(spec, seed, trace, work, setups, walls, cycles)


def run_cycles(spec: workloads.Workload, seconds: float, trace: bool,
               work: str, budget: Budget) -> list[dict]:
    """The measured cycles.  Traced: one untraced cycle, then one traced
    cycle that must reproduce it.  Untraced: whole cycles while the next
    is expected to end within `seconds`, at least one."""
    if trace:
        reference, _ = run_child(spec.cycle, False,
                                 os.path.join(work, "cycle0"), budget)
        traced, _ = run_child(spec.cycle, True,
                              os.path.join(work, "cycle1"), budget)
        compare_digests(reference, traced, "untraced run")
        cycles = [reference, traced]
    else:
        cycles = []
        started = time.monotonic()
        while True:
            result, _ = run_child(spec.cycle, False, os.path.join(
                work, f"cycle{len(cycles)}"), budget)
            if cycles:
                compare_digests(cycles[0], result, "first cycle")
            cycles.append(result)
            elapsed = time.monotonic() - started
            if elapsed * (len(cycles) + 1) / len(cycles) > seconds:
                break
    for cycle in cycles:
        for op, planned in zip(cycle["ops"], spec.cycle):
            op["rate"] = planned["rate"]
    return cycles


def summarize(spec: workloads.Workload, seed: int, trace: bool, work: str,
              setups: list[dict], setup_walls: list[float],
              cycles: list[dict]) -> dict:
    """Checks, counts and metrics of a run; also written to
    <work>/record.json."""
    info = provenance(seed, setups[0]["provenance"])
    setup_ref = [speed.reference_seconds(wall, setup["speed"])
                 for wall, setup in zip(setup_walls, setups)]
    threads = info.get("blas_threads")
    env_failures = []
    if threads is not None and threads > info["nproc"]:
        env_failures.append(f"BLAS runs {threads} threads on "
                            f"{info['nproc']} cores")
    ops = [op for r in setups + cycles for op in r["ops"]]
    attempted = len(ops) + len(env_failures)
    failed = sum(1 for op in ops if op["failures"]) + len(env_failures)
    record = {"workload": spec.name, "seed": seed, "trace": trace,
              "provenance": info, "attempted": attempted, "failed": failed,
              "failures": env_failures + [f for op in ops
                                          for f in op["failures"]],
              "setup_s_each": setup_ref, "wall_setup_s_each": setup_walls}
    if trace:
        record["metrics"] = {}
        if len(cycles) == 2 and cycles[1]["spans"]:
            record["metrics"] = spans.layer_metrics(
                cycles[1]["spans"], cycles[1]["trace_overhead_ns"])
            with open(os.path.join(work, "spans.json"), "w") as fh:
                json.dump(cycles[1]["spans"], fh)
        record["units"] = dict(spans.LAYER_UNITS)
    else:
        record["metrics"] = {
            "setup_s": statistics.median(setup_ref),
            "words_per_s": throughput(cycles) if cycles else 0.0,
            "peak_rss_mb": statistics.median(
                [c["peak_rss_mb"] for c in cycles]) if cycles else 0.0,
        }
        record["units"] = dict(END_TO_END)
        record["reported"] = (reported(cycles)
                              if cycles and not failed else {})
        if cycles:
            record["reported"].update(
                wall_words_per_s=throughput(cycles, "wall_s"),
                wall_setup_s=statistics.median(setup_walls),
                host_speed=host_speed(cycles))
        record["reported"]["failed_share"] = failed / max(1, attempted)
    record["cycles"] = [{k: v for k, v in c.items() if k != "spans"}
                        for c in cycles]
    with open(os.path.join(work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report_lines(record: dict) -> list[str]:
    """Provenance, failures and every metric with its unit, then the
    result object as the last line."""
    lines = ["provenance " + json.dumps(record["provenance"], sort_keys=True)]
    for failure in record["failures"]:
        lines.append("FAILED " + failure.strip().replace("\n", "\n  "))
    for table, units in (("metrics", record["units"]),
                         ("reported", REPORTED)):
        for name, value in record.get(table, {}).items():
            lines.append(f"{name} {value!r} {units[name]}")
    lines.append(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()}}))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"error: {SRC}/cli.py not found; run from the root of a "
              f"gedlab checkout", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report_lines(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
