#!/usr/bin/env bash
# Builds the Saga benchmark program from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash sagabench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Build caches, the binary, run data, untraced results and traced spans all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$(dirname "$0")" && go build -o "$out/sagabench" .) >&2
exec "$out/sagabench" -out "$out" "$@"
