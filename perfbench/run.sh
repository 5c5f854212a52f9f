#!/usr/bin/env bash
# Builds the benchmark and igqserve from the checkout it runs in, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload aids-zipf --seed 1 --seconds 10 --trace 0
#
# Build outputs and Go caches stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/igqserve" repro/cmd/igqserve)
exec "$out/perfbench" --serve-bin "$out/igqserve" --out "$out" "$@"
