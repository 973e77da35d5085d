#!/usr/bin/env bash
# Builds the benchmark and the siad server from the checkout's sources, then
# runs one workload:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build products, the Go build cache, the
# segment files a run writes, traces and detailed results all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin"

# Keep the toolchain's caches and config (telemetry included) in the checkout.
export GOCACHE=$out/gocache GOPATH=$out/gopath HOME=$out/home XDG_CONFIG_HOME=$out/home/.config \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/siad" sia/cmd/siad) >&2

exec "$out/bin/perfbench" -out "$out" -siad "$out/bin/siad" "$@"
