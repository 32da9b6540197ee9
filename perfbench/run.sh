#!/bin/sh
# Builds the benchmark from this checkout and runs it; arguments pass
# through (--workload NAME --seed N --seconds S --trace 0|1). Run from
# the repository root. Everything the build and the run write stays
# under .bench_build/ in the current directory.
set -e
root=$(pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" -out "$work/results" "$@"
