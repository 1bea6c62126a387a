#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and
# runs it from the root of the checkout with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
# Build diagnostics go to stderr: stdout is reserved for the result.
(cd "$root/bench" && go build -o "$out/lachesis-bench" .) >&2
cd "$root"
exec "$out/lachesis-bench" "$@"
