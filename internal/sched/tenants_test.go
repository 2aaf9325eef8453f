package sched

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"micstream/internal/sim"
	"micstream/internal/stats"
)

// aggregateByCopy is the tenant aggregation that groups copies of the
// outcomes per tenant before summing: the reference TenantTally must
// match without the copies.
func aggregateByCopy(outcomes []JobOutcome, makespan sim.Duration) []TenantStats {
	perTenant := map[string][]JobOutcome{}
	for _, o := range outcomes {
		if !o.Failed {
			perTenant[o.Tenant] = append(perTenant[o.Tenant], o)
		}
	}
	names := make([]string, 0, len(perTenant))
	for name := range perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantStats, 0, len(names))
	for _, name := range names {
		jobs := perTenant[name]
		lats := make([]float64, len(jobs))
		slow, misses := 0.0, 0
		for i, o := range jobs {
			lats[i] = float64(o.Latency())
			slow += o.Slowdown()
			if o.Missed {
				misses++
			}
		}
		p50, p95, p99 := stats.Percentiles(lats)
		ts := TenantStats{Tenant: name, Jobs: len(jobs), MeanLatency: sim.Duration(stats.Mean(lats)),
			P50: sim.Duration(p50), P95: sim.Duration(p95), P99: sim.Duration(p99),
			Misses: misses, MeanSlowdown: slow / float64(len(jobs))}
		if span := makespan.Seconds(); span > 0 {
			ts.Throughput = float64(len(jobs)) / span
		}
		out = append(out, ts)
	}
	return out
}

// AggregateTenants sums each tenant's latencies and slowdowns in
// outcome order and sorts one latency slice per tenant, so its stats
// are DeepEqual to grouping copies of the outcomes first — means and
// slowdown sums to the last bit.
func TestAggregateTenantsMatchesGroupedCopies(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 50; trial++ {
		outcomes := make([]JobOutcome, rng.IntN(300))
		for i := range outcomes {
			arrival := sim.Time(rng.Int64N(1e9))
			start := arrival.Add(sim.Duration(rng.Int64N(1e8)))
			o := JobOutcome{Index: i, ID: i, Tenant: []string{"b", "a", "c", "default"}[rng.IntN(4)],
				Arrival: arrival, Start: start, Done: start.Add(sim.Duration(rng.Int64N(3e7))),
				Missed: rng.IntN(5) == 0, Failed: rng.IntN(9) == 0}
			outcomes[i] = o
		}
		makespan := sim.Duration(rng.Int64N(2e9))
		if got, want := AggregateTenants(outcomes, makespan), aggregateByCopy(outcomes, makespan); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}
