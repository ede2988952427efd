#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py [--binary <path to dodb_e2e>]

Runs every workload at tiny size, untraced and traced, and checks that each
metric BENCHMARK.json names prints with its unit and a finite value, that
every answer was right (error_frac 0), and that a deliberately corrupted
reference answer makes the run fail, so the verifier is not vacuous.
Without --binary it builds the harness first, as run.py does.
"""

import argparse
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build and the paths live there)


def run_tiny(binary, workload, trace, corrupt=False):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", trace, "--tiny", "--work-dir", run.WORK_DIR]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check(binary, spec):
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
        return ok

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in (("0", spec["end_to_end"]),
                               ("1", spec["per_layer"])):
            where = "%s --trace %s" % (workload, trace)
            code, result, output = run_tiny(binary, workload, trace)
            if not expect(result is not None and code == 0,
                          "%s: exit %d\n%s" % (where, code, output)):
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   where + ": result keys " + str(sorted(result)))
            expect(result["correct"] is True, where + ": not correct")
            expect(result["attempted"] >= 1, where + ": nothing attempted")
            expect(result["failed"] == 0,
                   "%s: error_frac %d/%d" % (where, result["failed"],
                                             result["attempted"]))
            printed = result["metrics"]
            for m in metrics:
                got = printed.get(m["name"])
                if not expect(got is not None,
                              "%s: %s missing" % (where, m["name"])):
                    continue
                expect(got["unit"] == m["unit"],
                       "%s: %s unit %s, want %s" % (where, m["name"],
                                                    got["unit"], m["unit"]))
                expect(isinstance(got["value"], (int, float)) and
                       math.isfinite(got["value"]),
                       "%s: %s = %r" % (where, m["name"], got["value"]))
            expect(len(printed) == len(metrics),
                   "%s: %d metrics printed, %d declared" %
                   (where, len(printed), len(metrics)))

        code, result, output = run_tiny(binary, workload, "0", corrupt=True)
        expect(code == 1 and result is not None and
               result["correct"] is False and result["failed"] > 0,
               "%s: a corrupted reference answer was not caught "
               "(exit %d)\n%s" % (workload, code, output))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary")
    args = parser.parse_args()
    binary = args.binary or run.build()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = check(binary, spec)
    for failure in failures:
        print("FAIL " + failure)
    print("smoke test: %s" % ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
