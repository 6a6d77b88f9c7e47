#!/usr/bin/env bash
# Builds the ledger benchmark from the sources of this checkout and runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash ledger/run.sh --workload hybrid-serial --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache and scratch directories stay inside
# the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd ledger && go build -o "$out/ledger.new" .) >&2
mv -f "$out/ledger.new" "$out/ledger"
exec "$out/ledger" "$@"
