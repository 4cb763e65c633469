#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it:
#
#   bash perfbench/run.sh --workload tiny-light --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binary, traces) stays under ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out-dir "$out" "$@"
