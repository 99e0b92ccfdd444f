#!/usr/bin/env bash
# Builds the fragserver benchmark from the checkout it runs in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the replay
# spans. The benchmark is its own module (perfbench/go.mod) that uses the
# repository's packages from the parent directory, so it fails to build
# when run without them.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
