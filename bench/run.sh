#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload sw_suite --seed 3 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory, or under
# $CARGO_TARGET_DIR when that is set. The toolchain is pinned to the
# local one and the module proxy is off, so the build never reaches the
# network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "run.sh: run from the repository root (bench/go.mod not found)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOENV=off

go -C "$root/bench" build -o "$build/pimbench" .
exec "$build/pimbench" "$@"
