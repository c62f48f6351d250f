#!/usr/bin/env bash
# Builds the benchmark and laserd from the checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload alu --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build
# (or $CARGO_TARGET_DIR when set), including the Go build cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/laserd" ./cmd/laserd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/perfbench" "$@"
