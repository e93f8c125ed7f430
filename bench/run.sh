#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build and the run leave behind — the binary,
# Go's build cache and temporary files, the archives, the traces — stays
# under .bench_build/ and bench/out/, both ignored by git.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp" bench/out
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C bench -o "$build/spotlake-bench" . >&2
exec "$build/spotlake-bench" "$@"
