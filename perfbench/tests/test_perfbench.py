#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of the repository:

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark (as perfbench/run.py does), runs the C++ self-tests
(percentiles, tail choice, seeded schedules, metric names, span
arithmetic), then drives short runs of the real binary: the output JSON,
exact counts repeating under one seed, the span file, and that an aborted
or interrupted run leaves no process and no scratch file behind.
"""
import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PB = os.path.dirname(HERE)
ROOT = os.path.dirname(PB)
sys.path.insert(0, PB)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402

BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BIN = os.path.join(BUILD, "bin")
OUT = os.path.join(ROOT, ".bench_out")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, timeout=120):
    cmd = [os.path.join(BIN, "ldc_perfbench"), "--out-dir", ".bench_out"]
    return subprocess.run(cmd + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def own_children():
    """Pids of ldc_serve / ldc_shard processes built from this tree."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            exe = os.readlink("/proc/%s/exe" % pid)
        except OSError:
            continue
        if exe.startswith(BIN + "/") and not exe.endswith("ldc_perfbench"):
            pids.append(int(pid))
    return pids


def scratch_dirs():
    return glob.glob(os.path.join(OUT, "tmp-*"))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(BUILD):
            raise RuntimeError("benchmark build failed")
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_selftest"],
                       check=True, stdout=subprocess.DEVNULL)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_cpp_selftests(self):
        proc = subprocess.run([os.path.join(BIN, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_benchmark_json_matches_the_binary(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names + [w["name"] for w in self.spec["workloads"]]:
            self.assertRegex(n, NAME_RE)
        proc = bench("--workload", "nope", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        self.assertEqual(proc.returncode, 2)
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], proc.stderr)

    def test_untraced_output(self):
        proc = bench("--workload", "d1lc-serial", "--seed", "3", "--seconds", "1",
                     "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
        for v in res["metrics"].values():
            self.assertGreater(v["value"], 0)
        # Every metric is printed with its unit and sample count.
        for name in want:
            self.assertRegex(proc.stdout, r"# %s +\S+ +%s +\d+" %
                             (re.escape(name), re.escape(want[name])))
        # The op-time metrics are printed too, but not in the JSON result.
        for name, unit in (("p50_ms", "ms"), ("tail_ms", "ms"),
                           ("throughput_per_s", "1/s")):
            self.assertNotIn(name, res["metrics"])
            self.assertRegex(proc.stdout, r"# %s +\S+ +%s +\d+ \(not gated\)" %
                             (re.escape(name), re.escape(unit)))

    def test_traced_output_counts_repeat_under_one_seed(self):
        counts = []
        for seed in ("5", "5", "6"):
            proc = bench("--workload", "d1lc-serial", "--seed", seed,
                         "--seconds", "1", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            res = result_of(proc)
            want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
            self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
            counts.append([res["metrics"][k]["value"] for k in
                           ("runtime.rounds", "runtime.messages", "runtime.bits")])
            path = os.path.join(OUT, "trace-d1lc-serial-%s.json" % seed)
            with open(path) as f:
                doc = json.load(f)
            names = {e["name"] for e in doc["traceEvents"]}
            self.assertTrue({"op", "d1lc.color", "coloring.validate",
                             "graph.build"} <= names)
        self.assertEqual(counts[0], counts[1])
        self.assertNotEqual(counts[0], counts[2])

    def assert_clean(self):
        deadline = time.monotonic() + 10
        while own_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        self.assertEqual(own_children(), [])
        self.assertEqual(scratch_dirs(), [])

    def test_failed_op_leaves_nothing(self):
        for workload in ("serve-zipf", "kw-dist2"):
            proc = bench("--workload", workload, "--seed", "2", "--seconds", "2",
                         "--trace", "0", "--fail-after-ops", "1")
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertIn("injected failure", proc.stderr)
            self.assertFalse(proc.stdout.strip().endswith("}"))
            self.assert_clean()

    def test_interrupt_leaves_nothing(self):
        for workload in ("serve-zipf", "kw-dist2"):
            cmd = [os.path.join(BIN, "ldc_perfbench"), "--out-dir", ".bench_out",
                   "--workload", workload, "--seed", "4", "--seconds", "30",
                   "--trace", "0"]
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
            # Wait until the run is timing (its children are up), then stop it.
            deadline = time.monotonic() + 30
            while not own_children() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(1.0)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            self.assertEqual(proc.returncode, 1, err)
            self.assertIn("interrupted", err)
            self.assertFalse(out.strip().endswith("}"))
            self.assert_clean()

    def test_fails_without_program_sources(self):
        tmp = tempfile.mkdtemp(prefix="bare-", dir=OUT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PB, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "d1lc-serial",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
