#!/usr/bin/env bash
# Builds the service benchmark from source and runs it. Run from the
# repository root:
#
#   bash svcbench/run.sh --workload cold-solve --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the run records all stay under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/bin/svcbench" .) >&2
exec "$out/bin/svcbench" "$@"
