#!/usr/bin/env bash
# Builds perfbench from source and runs it from the root of the checkout:
#
#   bash perfbench/run.sh --workload scifi-wal --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
GOOFI_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export GOOFI_COMMIT
exec "$out/perfbench" -workdir "$out" "$@"
