#!/usr/bin/env bash
# Runs the benchmark suite and records one JSON per binary at the repo root:
#   BENCH_<name>.json            (name = binary name minus the bench_ prefix)
#   BENCH_<name>_t<K>.json       when DODB_THREADS=K is set in the environment
#
# Usage:
#   bench/run_benchmarks.sh [build_dir] [bench_name ...]
#
#   build_dir     defaults to "build"
#   bench_name    e.g. "qe" or "bench_qe"; default is every bench_* binary
#
# Extra google-benchmark flags pass through via BENCH_ARGS, e.g.:
#   BENCH_ARGS='--benchmark_filter=BM_RelationElimination' \
#     DODB_THREADS=1 bench/run_benchmarks.sh build qe
#
# BENCH_SMOKE=1 runs a fast CI preset: one quick repetition of a filtered
# subset, enough to validate that the binaries run and emit well-formed
# JSONs (with counter columns), not to produce stable timings.
#
# Every JSON is stamped (benchmark "context" section) with the git revision,
# compiler version, effective evaluation thread count, CMake build type and
# a provenance verdict, so archived records stay attributable.
#
# Committed records must come from an optimized build of a clean checkout
# on a multi-core host: the script refuses to run against a Debug (or
# default, un-optimized) build tree, a dirty working tree, or a host with
# one CPU (nproc = 1), where no threads:K row measures parallelism.
# BENCH_ALLOW_DIRTY=1 overrides the refusal
# for local experiments — the JSONs are then stamped provenance=tainted and
# must not be committed (check_perf_regression.py and code review key off
# the stamp).
#
# The parallel-engine speedup record (ISSUE: bench_qe relation-level
# elimination, bench_thm44) comes from running the same bench twice:
#   DODB_THREADS=1 bench/run_benchmarks.sh build qe thm44_datalog_ptime
#   bench/run_benchmarks.sh build qe thm44_datalog_ptime
# and comparing real_time in BENCH_<name>_t1.json vs BENCH_<name>.json.
#
# Every bench measures the one engine; no row compares evaluation modes.
# The thread-scaling record comes from bench_shard_scaling, which sweeps
# {n} x {threads} inside one binary:
#   bench/run_benchmarks.sh build shard_scaling
# and comparing threads:K rows against their threads:1 siblings in
# BENCH_shard_scaling.json. Engine counters in every row are per iteration.
# bench/check_perf_regression.py guards the committed JSONs against
# slowdowns in CI.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-build}"
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac
shift || true

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found; build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

if [[ $# -gt 0 ]]; then
  benches=()
  for name in "$@"; do
    benches+=("$build_dir/bench/bench_${name#bench_}")
  done
else
  benches=("$build_dir"/bench/bench_*)
fi

suffix=""
if [[ -n "${DODB_THREADS:-}" ]]; then
  suffix="_t${DODB_THREADS}"
fi

# Provenance stamps for the JSON "context" section. BENCH_*.json working
# copies are this script's own outputs — a full regeneration rewrites them
# one suite at a time, and later suites must not read the earlier ones as a
# dirty tree — so they are excluded from the dirty check.
git_sha="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git -C "$repo_root" diff --quiet -- ':!BENCH_*.json' 2>/dev/null; then
  git_sha="${git_sha}-dirty"
fi
compiler="$( (c++ --version 2>/dev/null || cc --version 2>/dev/null) \
  | head -n1 | tr -s ' ' | tr ' ' '_' )"
threads="${DODB_THREADS:-$(nproc 2>/dev/null || echo unknown)}"

# Provenance gate: refuse debug build trees and dirty checkouts. A cmake
# tree configured without CMAKE_BUILD_TYPE compiles at -O0, which is as
# unrepresentative as an explicit Debug build, so an absent entry counts as
# Debug here.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$build_dir/CMakeCache.txt" 2>/dev/null | head -n1)"
build_type="${build_type:-Debug}"
taint=""
case "$build_type" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *) taint="un-optimized build type '$build_type'" ;;
esac
if [[ "$git_sha" == *-dirty || "$git_sha" == unknown ]]; then
  taint="${taint:+$taint; }unclean git revision '$git_sha'"
fi
if [[ "$(nproc 2>/dev/null || echo 1)" -le 1 ]]; then
  taint="${taint:+$taint; }single-CPU host"
fi
# Reasons join with "; ": google-benchmark splits --benchmark_context on
# commas.
provenance="clean"
if [[ -n "$taint" ]]; then
  if [[ -z "${BENCH_ALLOW_DIRTY:-}" ]]; then
    echo "error: refusing to record benchmarks from: $taint" >&2
    echo "  committed BENCH_*.json must come from a Release build of a" >&2
    echo "  clean checkout on a multi-core host; set BENCH_ALLOW_DIRTY=1" >&2
    echo "  to record anyway" >&2
    echo "  (the JSONs are then stamped provenance=tainted and must not" >&2
    echo "  be committed)" >&2
    exit 1
  fi
  provenance="tainted ($taint)"
fi

smoke_args=()
if [[ -n "${BENCH_SMOKE:-}" ]]; then
  smoke_args=(--benchmark_min_time=0.01 --benchmark_repetitions=1)
fi

# bench_storage and bench_txn write snapshot/WAL scratch under
# $TMPDIR/dodb_bench_*; a crashed or interrupted run can leave those (plus
# stray *.snap / *.wal / dodb_data/ in the repo root) behind, so sweep them
# on entry and on exit.
cleanup_storage_artifacts() {
  rm -rf "${TMPDIR:-/tmp}"/dodb_bench_* \
    "$repo_root"/*.snap "$repo_root"/*.wal "$repo_root/dodb_data"
}
cleanup_storage_artifacts
trap cleanup_storage_artifacts EXIT

for bench in "${benches[@]}"; do
  [[ -x "$bench" ]] || { echo "error: $bench is not executable" >&2; exit 1; }
  name="$(basename "$bench")"
  out="$repo_root/BENCH_${name#bench_}${suffix}.json"
  echo "== $name -> ${out#"$repo_root"/}"
  # shellcheck disable=SC2086  # BENCH_ARGS is deliberately word-split
  "$bench" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_context=git_sha="$git_sha" \
    --benchmark_context=compiler="$compiler" \
    --benchmark_context=eval_threads="$threads" \
    --benchmark_context=cmake_build_type="$build_type" \
    --benchmark_context=provenance="$provenance" \
    "${smoke_args[@]}" \
    ${BENCH_ARGS:-}
done
