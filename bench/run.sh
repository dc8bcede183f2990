#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays under this directory:
# .build/ holds the Go build cache and the binary, out/ the results.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p .build/tmp
export GOCACHE="$PWD/.build/gocache" GOMODCACHE="$PWD/.build/gomodcache" GOTMPDIR="$PWD/.build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -o .build/forkbench .
exec .build/forkbench "$@"
