#!/usr/bin/env bash
# Builds the benchmark and the node binary (cmd/datadroplets) from the
# checkout it is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# node logs and trace files all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/datadroplets" datadroplets/cmd/datadroplets) >&2
exec "$out/perfbench" -node-bin "$out/datadroplets" -out "$out" "$@"
