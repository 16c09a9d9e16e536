#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload eject-l7 --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. The Go build cache and the binary stay
# under .bench_build/ (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
