#!/bin/sh
# Builds the benchmark driver inside the checkout and runs it with the
# given arguments.  Everything the build writes (binary, Go build cache)
# lands under .bench_build/ so a run touches nothing outside the checkout.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOMODCACHE="${GOMODCACHE:-$build/gomodcache}"
export GOTOOLCHAIN=local
go build -C bench -o "$build/randsync-bench" .
exec "$build/randsync-bench" "$@"
