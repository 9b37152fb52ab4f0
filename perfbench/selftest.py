"""Tests of the benchmark itself (stdlib unittest and numpy only).
Run from the root of the checkout:

    python3 -m unittest perfbench/selftest.py

The smoke tests run every workload at a small fraction of its size.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Big enough that the dev words are in the training vocabulary.  Below
# about 0.03 the tiny vocabulary splits words into characters, sentences
# pass max_len, tokenize_sentence drops words, and the eval check reports
# it as a failure.
SMOKE_SCALE = 0.05


def final_line(record: dict) -> dict:
    return json.loads(run.report_lines(record)[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._cwd = os.getcwd()
        os.chdir(ROOT)
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)
        os.chdir(cls._cwd)

    def work(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def test_every_metric_is_emitted_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        expected = {
            False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            True: {m["name"]: m["unit"] for m in declared["per_layer"]},
        }
        for name in workloads.NAMES:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    record = run.run(name, 5, 0.0, trace, scale=SMOKE_SCALE,
                                     work=self.work(f"{name}-{trace}"))
                    line = final_line(record)
                    self.assertEqual(line["failed"], 0, record["failures"])
                    self.assertTrue(line["correct"])
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, expected[trace])
                    for metric in line["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def infer_setup(self, name: str) -> tuple:
        """An infer workload whose set-up has run: (spec, set-up result,
        its wall seconds)."""
        work = self.work(name)
        spec = workloads.build("infer_eval", 5, work, scale=SMOKE_SCALE)
        setup, wall = run.run_child(spec.setup, False,
                                    os.path.join(work, "setup0"),
                                    run.Budget(run.RUN_BUDGET_S))
        self.assertFalse([op["failures"] for op in setup["ops"]
                          if op["failures"]])
        return spec, setup, wall

    def test_truncated_checkpoint_is_a_failed_operation(self):
        spec, setup, wall = self.infer_setup("fault")
        work = self.work("fault")
        checkpoint = os.path.join(work, "model.ckpt")
        with open(checkpoint, "rb") as fh:
            blob = fh.read()
        with open(checkpoint, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        cycles = run.run_cycles(spec, 0.0, False, work,
                                run.Budget(run.RUN_BUDGET_S))
        record = run.summarize(spec, 5, False, work, [setup], [wall], cycles)
        line = final_line(record)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)   # eval exits 2
        self.assertEqual(line["attempted"], len(spec.setup) + 1)
        self.assertTrue(all("exit code 2" in f for f in record["failures"]))
        self.assertAlmostEqual(record["reported"]["failed_share"],
                               1 / line["attempted"])

    def test_a_skewed_sentence_encoder_fails_the_reference_checks(self):
        """A fault in the one-sentence forward that eval and attn use
        (here every layer state scaled by 1.01) is a failed check, even
        where the predicted labels do not change."""
        self.infer_setup("skewed")
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import checks
        import gedlab.cli
        import gedlab.model
        from gedlab.tensor import scale
        original = gedlab.model.encode

        def skewed(*args, **kwargs):
            return [scale(s, 1.01) for s in original(*args, **kwargs)]

        for name, expected in (("infer_eval", "batched probabilities"),
                               ("infer_attn", "batched reference")):
            with self.subTest(workload=name):
                op = workloads.build(name, 5, self.work("skewed"),
                                     scale=SMOKE_SCALE).cycle[0]
                gedlab.model.encode = skewed
                try:
                    failures, *_ = checks.inspect(
                        op, gedlab.cli.main(op["cli"]))
                finally:
                    gedlab.model.encode = original
                self.assertTrue(any(expected in f for f in failures),
                                failures)
                self.assertEqual(checks.inspect(
                    op, gedlab.cli.main(op["cli"]))[0], [])

    def test_without_the_program_it_exits_nonzero_silently(self):
        bare = self.work("bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "infer_eval",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class StatisticsTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        self.assertEqual(spans.distribution(list(range(100)))["tail_pct"],
                         90.0)
        self.assertEqual(spans.distribution(list(range(40)))["tail_pct"],
                         75.0)
        small = spans.distribution([3.0, 1.0, 2.0])
        self.assertEqual((small["p50"], small["tail"], small["n"]),
                         (2.0, 2.0, 3))
        self.assertEqual(spans.distribution([])["n"], 0)

    def test_self_time_excludes_children(self):
        recorded = [["cli.train", 0, 100, -1, None],
                    ["training.train", 10, 90, 0, None],
                    ["training.batch_loss", 20, 40, 1, None],
                    ["encoder.encode_batch", 22, 30, 2, None],
                    ["training.adam", 50, 60, 1, None],
                    ["cli.eval", 100, 120, -1, None],
                    ["encoder.encode", 105, 110, 5, None]]
        self.assertEqual(spans.self_times(recorded),
                         [20, 50, 12, 8, 10, 15, 5])
        self.assertEqual(spans.step_times(recorded), [40])
        self.assertEqual(spans.in_training_step(recorded),
                         [False, False, False, True, False, False, False])

    def test_reference_seconds_drop_probe_time_and_scale(self):
        window = {"probes": 4, "probe_s": 0.2,
                  "probe_mean_s": 2 * speed.REF_PROBE_S}
        self.assertAlmostEqual(speed.reference_seconds(2.2, window), 1.0)
        self.assertAlmostEqual(speed.reference_seconds(
            2.0, {"probes": 0, "probe_s": 0.0, "probe_mean_s": None}), 2.0)

    def test_probe_samples_the_interval_it_runs_in(self):
        probe = speed.SpeedProbe(interval=0.01)
        probe.start()
        try:
            started = time.perf_counter()
            while time.perf_counter() - started < 0.3:
                sum(range(1000))
            ended = time.perf_counter()
        finally:
            probe.stop()
        window = probe.window(started, ended)
        self.assertGreater(window["probes"], 5)
        self.assertEqual(window["probe_s"], sum(
            d for s, d in probe.samples if started <= s <= ended))
        self.assertEqual(probe.window(ended + 1, ended + 2)["probes"], 0)

    def test_overhead_counts_every_span_and_keeps_them(self):
        tracer = spans.Tracer()
        for _ in range(3):
            tracer.close(tracer.open("cli.eval"))
        overhead = tracer.overhead_ns()
        self.assertEqual(len(tracer.spans), 3)
        self.assertGreater(overhead, 0.0)


if __name__ == "__main__":
    unittest.main()
