package obs

import (
	"io"

	"micstream/internal/telemetry"
)

// WriteMetricsJSON renders a drain-instant snapshot series as
// machine-readable JSON — the `miccluster -metrics-json` artifact.
// The rendering is handcrafted and key-ordered like the other
// artifact writers, so identical series are byte-identical files:
// integers verbatim, durations in nanoseconds of virtual time, floats
// in shortest round-trip form.
func WriteMetricsJSON(w io.Writer, snaps []telemetry.MetricsSnapshot) error {
	jw := &TextSink{W: w}
	jw.Printf("{\n  \"schema\": \"micstream-metrics-v1\",\n  \"snapshots\": [")
	for i := range snaps {
		s := &snaps[i]
		if i > 0 {
			jw.Printf(",")
		}
		jw.Printf("\n    {\"at_ns\": %d, \"elapsed_ns\": %d, \"done\": %d, \"steals\": %d, \"cluster_queue\": %d, \"fairness\": %s, \"hit_bytes\": %d, \"miss_bytes\": %d,\n",
			int64(s.At), int64(s.Elapsed), s.Done, s.Steals, s.ClusterQueue, FormatFloat(s.Fairness), s.HitBytes, s.MissBytes)
		jw.Printf("     \"devices\": [")
		for j := range s.Devices {
			d := &s.Devices[j]
			if j > 0 {
				jw.Printf(",")
			}
			jw.Printf("\n      {\"device\": %d, \"queued\": %d, \"inflight\": %d, \"backlog_ns\": %d, \"kernel_busy_ns\": %d, \"link_busy_ns\": %d, \"utilization\": %s, \"staged_bytes\": %d, \"resident_bytes\": %d}",
				d.Device, d.Queued, d.InFlight, int64(d.Backlog), int64(d.KernelBusy), int64(d.LinkBusy), FormatFloat(d.Utilization), d.StagedBytes, d.ResidentBytes)
		}
		if len(s.Devices) > 0 {
			jw.Printf("\n     ")
		}
		jw.Printf("],\n     \"tenants\": [")
		for j := range s.Tenants {
			t := &s.Tenants[j]
			if j > 0 {
				jw.Printf(",")
			}
			jw.Printf("\n      {\"tenant\": %s, \"done\": %d, \"throughput\": %s, \"mean_latency_ns\": %d, \"p95_ns\": %d}",
				JSONString(t.Tenant), t.Done, FormatFloat(t.Throughput), int64(t.MeanLatency), int64(t.P95))
		}
		if len(s.Tenants) > 0 {
			jw.Printf("\n     ")
		}
		jw.Printf("]}")
	}
	if len(snaps) > 0 {
		jw.Printf("\n  ")
	}
	jw.Printf("]\n}\n")
	return jw.Err
}
