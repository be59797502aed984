#!/usr/bin/env bash
# Builds the round benchmark from this checkout's source and runs it:
#
#   bash roundbench/run.sh --workload fleet-insitu --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, spill
# files, span dumps) stays under .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/roundbench" && go build -o "$out/roundbench" .)
cd "$root"
exec "$out/roundbench" "$@"
