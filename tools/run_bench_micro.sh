#!/usr/bin/env sh
# Runs the bench_micro kernel suite and records the serial-vs-parallel
# timings to BENCH_micro.json at the repo root.
#
# Usage: tools/run_bench_micro.sh [BUILD_DIR] [extra bench_micro flags...]
#   BUILD_DIR defaults to ./build. Extra flags are passed through, e.g.
#   --benchmark_min_time=0.01s for the CI smoke run, or
#   --benchmark_repetitions=3 for a file whose noise is visible.
#
# The JSON context records where the numbers come from: the commit
# (with -dirty for uncommitted changes), the build's CMAKE_BUILD_TYPE
# and C++ flags, nproc and the repetition count. benchmark_context
# splits on ',' and '=', so a flag's '=' is written as ':'.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-$repo_root/build}"
[ $# -gt 0 ] && shift

bench_bin="$build_dir/bench/bench_micro"
if [ ! -x "$bench_bin" ]; then
  echo "bench_micro not found at $bench_bin — build it first:" >&2
  echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' --target bench_micro" >&2
  exit 1
fi

cache_value() { sed -n "s/^$1:[A-Z]*=//p" "$build_dir/CMakeCache.txt"; }
build_type=$(cache_value CMAKE_BUILD_TYPE)
type_flags=$(cache_value "CMAKE_CXX_FLAGS_$(echo "$build_type" | tr a-z A-Z)")
cxx_flags=$(echo "$(cache_value CMAKE_CXX_FLAGS) $type_flags" | tr '=,' ': ')
repetitions=$(printf '%s\n' "$@" | sed -n 's/^--benchmark_repetitions=//p')
context="commit=$(git -C "$repo_root" describe --always --dirty)"
context="$context,build_type=${build_type:-none},cxx_flags=$cxx_flags"
context="$context,nproc=$(nproc),repetitions=${repetitions:-1}"

exec "$bench_bin" \
  --benchmark_out="$repo_root/BENCH_micro.json" \
  --benchmark_out_format=json \
  --benchmark_context="$context" \
  "$@"
