#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash benchmark/run.sh --workload paper-fig9 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs (binary, Go build cache, span
# files) stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOWORK=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/nvmcp-benchmark" .) >&2
exec "$out/nvmcp-benchmark" --spans-dir "$out/spans" "$@"
