#!/usr/bin/env bash
# Builds the scan-service benchmark from this checkout and runs it,
# passing every argument on. Run it from the repository root:
#
#   bash scanbench/run.sh --workload edge-small --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and tool configuration all live in
# .bench_build/ at the root, so the build reads the toolchain and this
# checkout and writes nowhere else.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go build -C scanbench -o "$out/scanbench" .
exec "$out/scanbench" "$@"
