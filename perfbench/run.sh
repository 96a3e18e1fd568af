#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs one workload.
#
#   bash perfbench/run.sh --workload analyst --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Everything it writes stays under .bench_build/ in the checkout. Build output
# goes to stderr so the last line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/src/engine/search_engine.h" ]]; then
  echo "perfbench: no exsample sources next to $here" >&2
  exit 2
fi

build_root="$root/.bench_build"
build_dir="$build_root/perfbench-cmake"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4

targets=(perfbench exsample_shardd)
if [[ "${1:-}" == "--selftest" ]]; then
  targets=(perfbench_selftest)
fi

mkdir -p "$build_root"
cmake -S "$here" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build_dir" -j "$jobs" --target "${targets[@]}" >&2

if [[ "${1:-}" == "--selftest" ]]; then
  exec "$build_dir/perfbench_selftest"
fi
cd "$root"
exec "$build_dir/perfbench" --workdir "$build_root/perfbench-run" "$@"
