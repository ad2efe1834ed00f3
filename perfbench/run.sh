#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run from the
# repository root with the program's flags, for example:
#
#   bash perfbench/run.sh --workload adapt-cycle --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and span files go to $CARGO_TARGET_DIR
# (default .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/perfbench-spans" "$@"
