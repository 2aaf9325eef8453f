#!/usr/bin/env bash
# coverage.sh — run the test suite with coverage, gate on a minimum
# total, and record the summary as a JSON artifact point.
#
# Usage: scripts/coverage.sh [run-id]
#
# Runs `go test -coverprofile` over every package (counting coverage
# across package boundaries with -coverpkg, so e.g. experiments runs
# credit the cluster code they exercise), fails if the total statement
# coverage drops below COVERAGE_THRESHOLD (default 70%, below the
# seed's measured state so the gate catches erosion, not noise), and
# renders the per-package mean function coverage into
# COVERAGE_<run-id>.json. CI uploads the file with its drift and SLO
# artifacts, so the artifact sequence records the coverage trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

run="${1:-local}"
out="COVERAGE_${run}.json"
threshold="${COVERAGE_THRESHOLD:-70}"

profile="$(mktemp)"
funcs="$(mktemp)"
trap 'rm -f "$profile" "$funcs"' EXIT

go test -count=1 -coverprofile="$profile" -coverpkg=./... ./... > /dev/null
go tool cover -func="$profile" > "$funcs"

total="$(awk '/^total:/ { sub(/%/, "", $3); print $3 }' "$funcs")"

{
  printf '{\n'
  printf '  "run": "%s",\n' "$run"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  printf '  "threshold_percent": %s,\n' "$threshold"
  printf '  "total_percent": %s,\n' "$total"
  printf '  "packages": [\n'
  awk '
    $1 ~ /\.go:/ {
      pkg = $1
      sub(/\/[^\/]*\.go:.*$/, "", pkg)
      pct = $3; sub(/%/, "", pct)
      funcs[pkg] += 1
      sum[pkg] += pct
    }
    END {
      for (pkg in funcs)
        printf "%s %.1f\n", pkg, sum[pkg] / funcs[pkg]
    }
  ' "$funcs" | sort | awk '{
    if (sep) print sep
    printf "    {\"package\": \"%s\", \"mean_func_percent\": %s}", $1, $2
    sep = ","
  }
  END { print "" }'
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "coverage: ${total}% total (threshold ${threshold}%) → $out"
awk -v t="$threshold" -v c="$total" 'BEGIN {
  if (c + 0 < t + 0) {
    printf "coverage %s%% is below the %s%% gate\n", c, t
    exit 1
  }
}'
