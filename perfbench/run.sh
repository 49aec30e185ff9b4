#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# inputs) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry under the user config
# directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
