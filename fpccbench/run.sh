#!/usr/bin/env bash
# Builds fpccbench from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout's root:
#
#   bash fpccbench/run.sh --workload fluid-dde --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the saved result sets stay under
# .bench_build/ in the checkout; nothing is fetched over the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C fpccbench build -o "$build/fpccbench" .
exec "$build/fpccbench" "$@"
