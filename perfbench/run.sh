#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 42 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced run's span files stay
# under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
