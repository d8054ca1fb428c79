#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument is passed through:
#
#   bash perfbench/run.sh --workload paper-spill --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
