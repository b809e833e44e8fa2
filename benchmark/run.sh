#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout: everything it writes (the Go build cache, the binary, the
# indexes of a run) goes under .bench_build/ there.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=mod
(cd "$src" && go build -o "$out/ndss-benchmark" .)
exec "$out/ndss-benchmark" "$@"
