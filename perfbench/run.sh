#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash perfbench/run.sh --workload campaign|read_storm|live_tail \
#       --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, temporary files, the
# run's segment directories and the traced run's span file.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
