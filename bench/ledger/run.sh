#!/usr/bin/env bash
# run.sh — build the perf ledger and run it with the given flags.
#
# Usage, from the repository root:
#
#   bash bench/ledger/run.sh --workload serve-ingest --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory (compiler cache included), so a fresh checkout builds from
# source; a traced run writes its Chrome trace to
# .bench_build/ledger-trace.json.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

commit=unknown
if [ -e .git ] && command -v git >/dev/null; then
  commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

go build -C bench/ledger -o "$out/ledger" .
exec "$out/ledger" -commit "$commit" -trace-out "$out/ledger-trace.json" "$@"
