#!/usr/bin/env python3
"""Build and run the engine benchmark.

    python3 perfbench/run.py --workload churn|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds the
engine library and the benchmark (Release, -O3) under .bench_build/; later
runs only rebuild what changed. The benchmark's standard output is passed
through; its last line is the JSON result. Without the engine sources next
to this directory the script exits with status 2 and prints no result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the engine sources and build files, in path order."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or "none"


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("engine sources (CMakeLists.txt, src/) not found next to perfbench/")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_CXX_FLAGS_RELEASE=-O3 -DNDEBUG"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        res = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if res.returncode != 0:
            sys.stderr.write(res.stdout + res.stderr)
            log("configure failed")
            return None
    res = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                          "-j", "4"], capture_output=True, text=True, check=False)
    if res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
        log("build failed")
        return None
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["churn", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_build", "traces"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        return res.returncode
    lines = res.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    # The result must carry exactly the metrics BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
    result = json.loads(lines[-1])
    if list(result["metrics"]) != declared:
        log("result metrics differ from BENCHMARK.json: %s"
            % sorted(set(result["metrics"]) ^ set(declared)))
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
