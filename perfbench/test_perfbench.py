#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (seconds per case).

    python3 perfbench/test_perfbench.py

Each workload must print every metric BENCHMARK.json names, with its
unit, in both modes; a held-out seed must change the inputs but not
the metric set; and a run whose drain or digest check is broken on
purpose must be reported as failed.
"""

import glob
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = ("ddr3_replay", "ddr3_replay_cycle", "hmc64_random",
             "fullsys_canneal")


def bench(workload, seed=7, trace=0, tamper=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.3", "--trace",
           str(trace), "--smoke"]
    if tamper:
        cmd += ["--tamper", tamper]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d: %s"
                             % (proc.returncode, proc.stderr[-2000:]))
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    return {"host": lines[0]["host"], "run": lines[-2]["run"],
            "result": lines[-1]}


def spec_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class SmokeTest(unittest.TestCase):
    def check_result(self, out, section):
        res = out["result"]
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(units, spec_units(section))
        for name, m in res["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if section == "end_to_end":
                self.assertGreater(m["value"], 0, name)

    def test_every_workload_prints_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                self.check_result(bench(w), "end_to_end")
            with self.subTest(workload=w, trace=1):
                out = bench(w, trace=1)
                self.check_result(out, "per_layer")
                for row in ("ledger.ctrl_ns_per_req",
                            "ledger.replay_ns_per_req",
                            "ledger.xbar_ns_per_req",
                            "ledger.mc64_1t_ns_per_req",
                            "ledger.mc64_4t_ns_per_req",
                            "ledger.cycle_ns_per_req"):
                    self.assertGreater(
                        out["result"]["metrics"][row]["value"], 0, row)

    def test_host_metadata_recorded(self):
        host = bench("ddr3_replay")["host"]
        self.assertEqual(set(host), {"nproc", "cpu_model", "compiler",
                                     "build_type", "git_sha"})
        self.assertIn(host["build_type"], run.TIMED_BUILD_TYPES)

    def test_held_out_seed_changes_inputs_not_metric_set(self):
        for w in ("ddr3_replay", "hmc64_random"):
            with self.subTest(workload=w):
                a, b = bench(w, seed=7), bench(w, seed=8)
                self.assertNotEqual(a["run"]["inputs_digest"],
                                    b["run"]["inputs_digest"])
                self.assertNotEqual(a["run"]["stats_digest"],
                                    b["run"]["stats_digest"])
                self.assertEqual(set(a["result"]["metrics"]),
                                 set(b["result"]["metrics"]))
                again = bench(w, seed=7)["run"]
                for key in ("inputs_digest", "stats_digest"):
                    self.assertEqual(a["run"][key], again[key])

    def test_tampered_runs_are_reported_failed(self):
        for w in ("ddr3_replay", "hmc64_random"):
            for tamper in ("drain", "digest"):
                with self.subTest(workload=w, tamper=tamper):
                    res = bench(w, tamper=tamper)["result"]
                    self.assertFalse(res["correct"])
                    self.assertGreater(res["failed"], 0)
                    self.assertLessEqual(res["failed"], res["attempted"])

    def test_temporary_inputs_removed(self):
        bench("ddr3_replay")
        self.assertEqual(
            glob.glob(os.path.join(ROOT, ".bench_build", "tmp-*")), [])


class BuildGateTest(unittest.TestCase):
    def refused(self, cache):
        with self.assertRaises(SystemExit):
            run.refuse_untimeable(cache)

    def test_refuses_untimeable_builds(self):
        self.refused({"CMAKE_BUILD_TYPE": "Debug"})
        self.refused({"CMAKE_BUILD_TYPE": ""})
        self.refused({"CMAKE_BUILD_TYPE": "Release",
                      "CMAKE_CXX_FLAGS": "-fsanitize=address"})
        self.refused({"CMAKE_BUILD_TYPE": "Release",
                      "CMAKE_CXX_FLAGS_RELEASE": "-O0 --coverage"})
        self.refused({"CMAKE_BUILD_TYPE": "Release",
                      "DRAMCTRL_SANITIZE": "thread"})

    def test_accepts_optimised_builds(self):
        for bt in run.TIMED_BUILD_TYPES:
            self.assertEqual(run.refuse_untimeable(
                {"CMAKE_BUILD_TYPE": bt, "CMAKE_CXX_FLAGS": "-O2",
                 "DRAMCTRL_SANITIZE": "OFF"}), bt)


if __name__ == "__main__":
    unittest.main()
