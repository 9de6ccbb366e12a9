#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, temp files, the binary, CPU profiles) stays under
# .bench_build in that directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
