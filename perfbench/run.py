#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) in .bench_build/,
as a Release build; later calls rebuild only what changed. Debug,
sanitizer and coverage builds are refused before anything is timed.

Generated inputs go to a temporary directory under .bench_build/ that
is removed on exit. Host and build metadata are printed as one JSON
line; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Extra flags for the package's own tests: --smoke (small sizes),
--tamper drain|digest (break one check on purpose).
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
TIMED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def read_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def refuse_untimeable(cache):
    """A timed run needs an optimised build without instrumentation."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in TIMED_BUILD_TYPES:
        fail("refusing to time a '%s' build" % (build_type or "no-type"))
    suffix = "_" + build_type.upper()
    flags = " ".join(cache.get(base + s, "")
                     for base in ("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")
                     for s in ("", suffix))
    for bad in ("-fsanitize", "--coverage", "-fprofile-arcs", "-O0"):
        if bad in flags:
            fail("refusing to time a build with %s" % bad)
    for opt in ("DRAMCTRL_SANITIZE", "DRAMCTRL_COVERAGE"):
        if cache.get(opt, "OFF").upper() not in ("", "OFF", "0", "FALSE"):
            fail("refusing to time a build with %s=%s" % (opt, cache[opt]))
    return build_type


def host_metadata(cache, build_type):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": "%s (%s)" % (compiler, version),
            "build_type": build_type, "git_sha": sha}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tamper", choices=("drain", "digest"))
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    cache = read_cache()
    build_type = refuse_untimeable(cache)
    print(json.dumps({"host": host_metadata(cache, build_type)}),
          flush=True)

    tmp = tempfile.mkdtemp(prefix="tmp-", dir=os.path.dirname(BUILD))
    seed = args.seed % (1 << 64)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", tmp]
    if args.smoke:
        cmd.append("--smoke")
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("metric set differs from BENCHMARK.json: %s" % sorted(got))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
