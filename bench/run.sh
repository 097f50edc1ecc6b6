#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload kernel -seed 7 -seconds 20 -trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# binaries, temporary stores, daemon data) stays under .bench_build/ at the
# repository root.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
