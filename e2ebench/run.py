#!/usr/bin/env python3
"""Builds the dodb end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload serve_read --seed 1 --seconds 30 --trace 0

The harness is configured once (Release) into .bench_build/e2ebench at the
repository root and rebuilt incrementally on every run. Its standard output
passes through unchanged, so the last line is the result object. Build
output goes to standard error, and only when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "e2e_work")
BINARY = os.path.join(BUILD_DIR, "dodb_e2e")
WORKLOADS = ("serve_read", "serve_write", "tc_fixpoint")
RUN_TIMEOUT_S = 175


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step; on failure echoes its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dodb sources not found at %s/src; run from a full checkout"
             % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    return BINARY


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if sha.returncode != 0:
            return "none"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "e2ebench"],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True,
                               timeout=10)
        return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over every file of src/ and e2ebench/: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the %s run did not finish in %d s" % (args.workload,
                                                    RUN_TIMEOUT_S))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
