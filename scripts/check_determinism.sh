#!/usr/bin/env bash
# check_determinism.sh — static lint for the determinism contract.
#
# The simulation packages promise bit-identical runs per seed
# (DESIGN.md §6): all time is virtual, and nothing observable may
# depend on Go's randomized map iteration order. This script enforces
# the two leak classes that property tests catch only probabilistically:
#
#  1. Wall-clock reads. time.Now/Since/Until/Sleep have no place in
#     the virtual-time packages — timestamps come from the engine's
#     clock. (Benchmarks and the CLIs may read real time; they are not
#     linted.)
#
#  2. Unordered map iteration. `for ... range m` over a map feeds
#     Go's per-run random order into whatever the loop emits. Every
#     such loop in the linted packages must either be the
#     collect-keys-then-sort idiom (a sort within the next few lines)
#     or carry a nearby comment marking it order-independent /
#     sorted, so the exemption is visible at the loop.
#
# Scope: internal/{sim,core,hstreams,device,pcie,trace,sched,cluster,
# telemetry,obs,slo,apps,experiments}, non-test files (tests may use
# wall clocks for timeouts and maps for assertions). The experiments
# run their sweeps on worker goroutines, so the ordered reduction the
# tables rely on must not lean on a map's order either.
#
# A dynamic check rides along: two back-to-back `miccluster -slo
# -flight` runs of the same seed must write byte-identical SLO reports
# and flight reports — the artifact-level determinism the static lint
# protects. The flight ring is fed through the observer stack, whose
# budget-exhaustion trigger must land in the report.
set -euo pipefail
cd "$(dirname "$0")/.."

dirs="internal/sim internal/core internal/hstreams internal/device internal/pcie internal/trace internal/sched internal/cluster internal/telemetry internal/obs internal/slo internal/apps internal/experiments"
status=0

if out=$(grep -rn --include='*.go' -E 'time\.(Now|Since|Until|Sleep)\(' $dirs | grep -v '_test.go'); then
  echo "check_determinism: wall-clock use in virtual-time packages:" >&2
  echo "$out" >&2
  status=1
fi

for f in $(find $dirs -name '*.go' ! -name '*_test.go' | sort); do
  if ! awk '
    {
      lines[NR] = $0
      line = $0
      sub(/\/\/.*/, "", line)   # declarations inside comments do not count
      # assignment / short-declaration of a map value
      if (line ~ /:?= *(make\()?map\[/) {
        n = line
        sub(/ *:?= *(make\()?map\[.*/, "", n)
        sub(/.*[^A-Za-z0-9_]/, "", n)
        if (n ~ /^[A-Za-z_][A-Za-z0-9_]*$/) maps[n] = 1
      }
      # struct field, var decl, or parameter typed as a map
      if (line ~ /[A-Za-z_][A-Za-z0-9_]* +map\[/) {
        n = line
        sub(/ +map\[.*/, "", n)
        sub(/.*[^A-Za-z0-9_]/, "", n)
        if (n ~ /^[A-Za-z_][A-Za-z0-9_]*$/) maps[n] = 1
      }
    }
    END {
      bad = 0
      for (i = 1; i <= NR; i++) {
        line = lines[i]
        if (line !~ /for .* range /) continue
        n = line
        sub(/.*range +/, "", n)
        sub(/[^A-Za-z0-9_.].*/, "", n)
        leaf = n
        sub(/.*\./, "", leaf)
        if (!(leaf in maps)) continue
        ok = 0
        for (j = i + 1; j <= i + 6 && j <= NR; j++)
          if (lines[j] ~ /sort\.|slices\.Sort/) ok = 1
        for (j = (i > 3 ? i - 3 : 1); j <= i; j++)
          if (lines[j] ~ /order-independent|sorted|stable order/) ok = 1
        if (!ok) {
          printf "%s:%d: range over map %s without a nearby sort or order-independent annotation\n", FILENAME, i, n
          bad = 1
        }
      }
      exit bad
    }
  ' "$f"; then
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "check_determinism: FAILED" >&2
  exit 1
fi

# Byte-identity of the SLO and flight artifacts: same seed, same spec,
# two runs, one diff each. Catches any nondeterminism the static
# lint's scope misses (float formatting, map order in a rendered
# report, hidden clocks, observer fan-out order).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/spec.json" <<'EOF'
{"objectives": [
  {"tenant": "A", "name": "a-lat", "kind": "latency", "target": 0.9, "threshold": "1500us", "fast_burn": 8, "slow_burn": 4},
  {"tenant": "B", "name": "b-deadline", "kind": "deadline", "target": 0.8, "threshold": "2ms"}
]}
EOF
for run in a b; do
  go run ./cmd/miccluster -njobs=24 -seed=3 -slo "$tmp/spec.json" -slo-json "$tmp/SLO_$run.json" \
    -flight "$tmp/flight_$run.txt" -flight-p95=1ms > /dev/null
done
if ! cmp -s "$tmp/SLO_a.json" "$tmp/SLO_b.json"; then
  echo "check_determinism: FAILED — back-to-back SLO reports differ:" >&2
  diff "$tmp/SLO_a.json" "$tmp/SLO_b.json" >&2 || true
  exit 1
fi
if ! cmp -s "$tmp/flight_a.txt" "$tmp/flight_b.txt"; then
  echo "check_determinism: FAILED — back-to-back flight reports differ:" >&2
  diff "$tmp/flight_a.txt" "$tmp/flight_b.txt" >&2 || true
  exit 1
fi
if ! grep -q 'error budget exhausted' "$tmp/flight_a.txt"; then
  echo "check_determinism: FAILED — no budget-exhaustion dump in the flight report:" >&2
  cat "$tmp/flight_a.txt" >&2
  exit 1
fi

echo "check_determinism: ok (no wall-clock reads, all map iterations ordered or annotated, SLO and flight reports byte-identical)"
