#!/usr/bin/env bash
# Builds the benchmark, mrcd and mrcgen from the checkout this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload probe --seed 1 --seconds 55 --trace 0
#
# Build products, the Go build cache and span dumps stay under
# .bench_build at the checkout root; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/mrcd" ./cmd/mrcd && go build -o "$out/mrcgen" ./cmd/mrcgen)
cd "$root"
exec "$out/perfbench" -mrcd "$out/mrcd" -mrcgen "$out/mrcgen" -spans "$out/spans" "$@"
