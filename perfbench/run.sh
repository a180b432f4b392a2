#!/usr/bin/env bash
# run.sh — build and run the end-to-end benchmark from the repository
# root:
#
#   bash perfbench/run.sh --workload service_local --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the binary, and the servers' data directories. The binary
# needs the repository's own sources (perfbench/go.mod replaces
# positres with ..), so outside a checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -work-dir "$build" -repo "$root" "$@"
