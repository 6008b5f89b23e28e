#!/usr/bin/env bash
# Builds srv6perf from source inside the checkout and runs it with the
# given arguments. Run it from the module root:
#
#   bash srv6perf/run.sh --workload lab-endbpf --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and span dumps stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/srv6perf" ./srv6perf
exec "$out/srv6perf" --out-dir "$out" "$@"
