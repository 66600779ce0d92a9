#!/usr/bin/env bash
# Builds loadctld and loadctlproxy from the checkout, builds the benchmark
# and its traced harness, and runs one benchmark invocation. All build
# output and run state stay under .bench_build/ at the checkout root.
#
#	bash perfbench/run.sh --workload small-mixed --seed 1 --seconds 25 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/run"

# Everything the go command writes (build cache, module cache, telemetry
# counters under the config dir) lands in $out; nothing is downloaded.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$out/bin/" ./cmd/loadctld ./cmd/loadctlproxy)
(cd "$here" && go build -o "$out/bin/" . ./tracedsrv)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" -root "$root" "$@"
