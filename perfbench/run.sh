#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run leave behind (binary, Go build cache, result caches, spans) stays
# under .bench_build/ at the repository root.
#
#   bash perfbench/run.sh --workload walks --seed 1 --seconds 50 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" . >&2
# Stop-the-world collections happen at points set by allocation alone, so
# peak memory repeats and timings spread less (see main.go).
GODEBUG=gcstoptheworld=1 exec "$build/perfbench" "$@"
