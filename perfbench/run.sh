#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#   bash perfbench/run.sh --workload stream-hmac --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the go command's own configuration
# and telemetry directory, and the binary stay in .bench_build under the
# current directory, so the benchmark writes nowhere else.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
