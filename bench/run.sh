#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the arguments
# given (see README.md). Everything the build leaves behind - the Go build
# cache included - stays in .bench_build/ beside this directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# Stdlib-only modules joined by a local replace: nothing to download.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
