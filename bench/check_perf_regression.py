#!/usr/bin/env python3
"""Guards the committed benchmark records against perf regressions.

Compares freshly produced BENCH_*.json files (a BENCH_SMOKE run in CI, or a
full bench/run_benchmarks.sh run locally) against the records committed at a
baseline git revision, matching benchmarks by (file, name). A case that got
more than --threshold slower (default 25%) fails the check.

CI smoke timings are noisy by design, so the guard is deliberately coarse:
it catches the "accidentally quadratic" class of regression, not small
drifts. Cases present on only one side (new benchmarks, retired benchmarks)
are reported and skipped.

BENCH_ivm.json additionally carries an absolute acceptance floor that needs
no baseline: every fresh BM_IvmIncrementalUpdate row at the smallest delta
(off:1) must keep speedup_vs_recompute >= 10 — the incremental-maintenance
edge over a from-scratch recompute is a ratio within one run, so it is
stable even under smoke timings, and losing it means O(delta) maintenance
degraded to O(n) regardless of how the wall-clock moved.

BENCH_server.json and BENCH_txn.json carry analogous absolute gates; see
server_floor_failures / txn_floor_failures below.

Usage:
  bench/check_perf_regression.py [--baseline REV] [--threshold PCT]
                                 [--fresh-dir DIR]

  --baseline REV   git revision holding the committed records (default HEAD)
  --threshold PCT  allowed slowdown in percent (default 25)
  --fresh-dir DIR  directory with the fresh BENCH_*.json (default repo root)
"""

import argparse
import json
import pathlib
import subprocess
import sys


def repo_root() -> pathlib.Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        check=True, capture_output=True, text=True)
    return pathlib.Path(out.stdout.strip())


def committed_json(rev: str, path: str):
    """The parsed BENCH json at `rev`, or None when absent there."""
    proc = subprocess.run(
        ["git", "show", f"{rev}:{path}"], capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


# Absolute floor for the incremental-view-maintenance record: the off:1 rows
# (single-edge delta against the n=64 transitive closure) must beat a full
# recompute by at least this factor.
IVM_FILE = "BENCH_ivm.json"
IVM_MIN_SPEEDUP = 10.0

# Absolute acceptance gates for the multi-client server record
# (BENCH_server.json), all within-run counts and hence stable under smoke
# timings:
#   - every row carrying a corrupt_recoveries counter must report 0 (no
#     served answer ever diverged from the in-process reference),
#   - the overload-shedding row must have shed at least once
#     (overload_rejections >= 1) AND re-admitted at least one shed client
#     via its own retries (retry_success >= 1), or the record never
#     demonstrates admission control at work.
SERVER_FILE = "BENCH_server.json"


def server_floor_failures(rel_name: str, rows: dict) -> list:
    """Failures of the absolute server gates (independent of baseline)."""
    failures = []
    shed_rows = 0
    for name, row in sorted(rows.items()):
        corrupt = row.get("corrupt_recoveries")
        if corrupt is not None and corrupt != 0:
            failures.append(
                f"{rel_name}: {name}: served answers diverged from the "
                f"reference (corrupt_recoveries = {corrupt:.0f})")
        if not name.startswith("BM_ServerOverloadShedding"):
            continue
        shed_rows += 1
        if row.get("overload_rejections", 0) < 1:
            failures.append(
                f"{rel_name}: {name}: the herd never got shed "
                f"(overload_rejections = 0) — admission control untested")
        if row.get("retry_success", 0) < 1:
            failures.append(
                f"{rel_name}: {name}: no shed client was later admitted by "
                f"retry (retry_success = 0)")
    if shed_rows == 0:
        failures.append(
            f"{rel_name}: no BM_ServerOverloadShedding rows — the "
            f"overload-shedding acceptance record is missing")
    return failures


# Absolute acceptance gates for the MVCC transaction record
# (BENCH_txn.json), all within-run counters and hence stable under smoke
# timings:
#   - the 8-connection, 0%-writer read-throughput row must scale at least
#     TXN_MIN_SCALING over its own in-run single-connection calibration —
#     read-only transactions overlapping their stalls is the whole point of
#     taking reads off the exec mutex,
#   - every row carrying a corrupt_recoveries counter must report 0 (no
#     wrong answer, no live-state divergence from the commit ledger, no
#     recovery that failed to reproduce the served state),
#   - the contended conflict-sweep row (target_relations:1) must have
#     detected at least one first-committer-wins conflict, and the disjoint
#     row (target_relations == writers) must have detected none — a sweep
#     that can't tell the two apart validates nothing.
TXN_FILE = "BENCH_txn.json"
TXN_MIN_SCALING = 3.0


def txn_floor_failures(rel_name: str, rows: dict) -> list:
    """Failures of the absolute MVCC transaction gates."""
    failures = []
    scaling_rows = 0
    for name, row in sorted(rows.items()):
        corrupt = row.get("corrupt_recoveries")
        if corrupt is not None and corrupt != 0:
            failures.append(
                f"{rel_name}: {name}: transactional answers or recovery "
                f"diverged (corrupt_recoveries = {corrupt:.0f})")
        if name.startswith("BM_TxnReadThroughput"):
            if row.get("connections") != 8 or row.get("writer_pct") != 0:
                continue
            scaling_rows += 1
            speedup = row.get("speedup_vs_1conn")
            if speedup is None:
                failures.append(
                    f"{rel_name}: {name}: missing speedup_vs_1conn counter")
            elif speedup < TXN_MIN_SCALING:
                failures.append(
                    f"{rel_name}: {name}: speedup_vs_1conn {speedup:.2f} "
                    f"< required {TXN_MIN_SCALING:.0f}x — read transactions "
                    f"are serializing again")
        if name.startswith("BM_TxnConflictRate"):
            conflicts = row.get("conflicts", 0)
            if row.get("target_relations") == 1 and conflicts < 1:
                failures.append(
                    f"{rel_name}: {name}: contended writers never "
                    f"conflicted — first-committer-wins validation untested")
            if (row.get("target_relations") == row.get("writers")
                    and conflicts != 0):
                failures.append(
                    f"{rel_name}: {name}: disjoint write sets conflicted "
                    f"(conflicts = {conflicts:.0f}) — validation is "
                    f"over-rejecting")
    if scaling_rows == 0:
        failures.append(
            f"{rel_name}: no 8-connection read-only BM_TxnReadThroughput "
            f"row — the read-scaling acceptance record is missing")
    return failures


def ivm_floor_failures(rel_name: str, rows: dict) -> list:
    """Failures of the absolute IVM speedup floor (independent of baseline)."""
    failures = []
    for name, row in sorted(rows.items()):
        if not name.startswith("BM_IvmIncrementalUpdate"):
            continue
        if not name.endswith("/off:1"):
            continue
        speedup = row.get("speedup_vs_recompute")
        if speedup is None:
            failures.append(
                f"{rel_name}: {name}: missing speedup_vs_recompute counter")
        elif speedup < IVM_MIN_SPEEDUP:
            failures.append(
                f"{rel_name}: {name}: speedup_vs_recompute {speedup:.1f} "
                f"< required {IVM_MIN_SPEEDUP:.0f}x")
    return failures


def rows_by_name(doc) -> dict:
    rows = {}
    for row in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev of repetitions) would double
        # count; keep plain iteration rows only.
        if row.get("run_type") == "aggregate":
            continue
        rows[row["name"]] = row
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="HEAD")
    parser.add_argument("--threshold", type=float, default=25.0)
    parser.add_argument("--fresh-dir", default=None)
    args = parser.parse_args()

    root = repo_root()
    fresh_dir = pathlib.Path(args.fresh_dir) if args.fresh_dir else root
    fresh_files = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"error: no BENCH_*.json under {fresh_dir}", file=sys.stderr)
        return 2

    limit = 1.0 + args.threshold / 100.0
    regressions = []
    compared = 0
    skipped = []

    for fresh_path in fresh_files:
        rel_name = fresh_path.name
        try:
            with open(fresh_path) as f:
                fresh_doc = json.load(f)
        except json.JSONDecodeError as err:
            skipped.append(f"{rel_name}: unreadable fresh JSON ({err})")
            continue
        fresh_rows = rows_by_name(fresh_doc)
        # The IVM acceptance floor is absolute, so it applies even when the
        # baseline predates the record.
        if rel_name == IVM_FILE:
            regressions.extend(ivm_floor_failures(rel_name, fresh_rows))
            compared += sum(1 for name in fresh_rows
                            if name.startswith("BM_IvmIncrementalUpdate")
                            and name.endswith("/off:1"))
        # The server's shed/no-corruption gates are likewise absolute.
        if rel_name == SERVER_FILE:
            regressions.extend(server_floor_failures(rel_name, fresh_rows))
            compared += sum(1 for name in fresh_rows
                            if name.startswith("BM_ServerOverloadShedding"))
        # And the MVCC transaction scaling/conflict/durability gates.
        if rel_name == TXN_FILE:
            regressions.extend(txn_floor_failures(rel_name, fresh_rows))
            compared += sum(1 for name in fresh_rows
                            if name.startswith("BM_TxnReadThroughput")
                            or name.startswith("BM_TxnConflictRate"))
        baseline_doc = committed_json(args.baseline, rel_name)
        if baseline_doc is None:
            skipped.append(f"{rel_name}: not committed at {args.baseline}")
            continue
        baseline_rows = rows_by_name(baseline_doc)
        for name, fresh_row in fresh_rows.items():
            base_row = baseline_rows.get(name)
            if base_row is None:
                skipped.append(f"{rel_name}: {name}: new benchmark")
                continue
            base_time = base_row.get("real_time", 0.0)
            fresh_time = fresh_row.get("real_time", 0.0)
            if base_time <= 0.0:
                continue
            compared += 1
            ratio = fresh_time / base_time
            if ratio > limit:
                regressions.append(
                    f"{rel_name}: {name}: {base_time:.0f} -> "
                    f"{fresh_time:.0f} {fresh_row.get('time_unit', 'ns')} "
                    f"({(ratio - 1.0) * 100.0:+.1f}%)")

    for line in skipped:
        print(f"skip: {line}")
    print(f"compared {compared} cases against {args.baseline} "
          f"(threshold +{args.threshold:.0f}%)")
    if compared == 0:
        print("error: nothing to compare — baseline has no matching rows",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond the threshold:")
        for line in regressions:
            print(f"  FAIL {line}")
        return 1
    print("no regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
