package micstream

import (
	"time"

	"micstream/internal/cluster"
	"micstream/internal/serve"
)

// Service mode (DESIGN.md §15): the batch cluster refactored into a
// long-running server. A ClusterServer owns a persistent
// ClusterSession, ingests jobs concurrently from any number of
// goroutines through a mutex-guarded admission queue, streams
// per-job outcomes to subscribers as they complete, and serves the
// OpenMetrics exporter and flight recorder live. Wall-clock time
// decides only which epoch batch a job lands in; everything after
// admission is the deterministic virtual-time cascade of DESIGN.md
// §6, so the recorded batch sequence replays bit-identically.

type (
	// ClusterServer is the long-running concurrent-ingest service over
	// one cluster: Submit from any goroutine, Subscribe for the
	// outcome stream, Drain for graceful shutdown with a deadline.
	ClusterServer = serve.Server
	// ClusterSession is the cluster's embedded service mode: batched
	// admissions at epoch boundaries, warm scheduler/residency state
	// across epochs, per-job outcomes streamed on completion. Serve
	// wraps one; embedders driving their own ingest loop use it
	// directly.
	ClusterSession = cluster.Session
	// ServeBatch is one epoch's admitted jobs — the unit of the
	// recorded ingest sequence ReplayBatches consumes.
	ServeBatch = serve.Batch
	// ServeStats snapshots a server's ingest counters, including the
	// sustained jobs/sec rate.
	ServeStats = serve.Stats
	// OutcomeSubscription is one subscriber's outcome stream; Next
	// blocks for the next completion, reporting exhaustion after the
	// server drains.
	OutcomeSubscription = serve.Subscription
	// ServeOption configures Serve.
	ServeOption = serve.Option
)

// ErrServerStopped is returned by ClusterServer.Submit once a drain
// has begun: the job was not admitted and never will be.
var ErrServerStopped = serve.ErrStopped

// Serve opens service mode on a cluster and starts its run loop. The
// cluster is borrowed exclusively until Drain completes. With an
// exporter, flight recorder or SLO evaluator attached, the cluster's
// Telemetry streams to them and keeps no log: after Serve, its
// Events() and Cluster.Metrics() no longer grow.
func Serve(c *Cluster, opts ...ServeOption) (*ClusterServer, error) {
	return serve.New(c, opts...)
}

// NewClusterSession opens the embedded service mode on a cluster:
// batched Submit/RunEpoch cycles under the caller's control, with
// onOutcome (optional) receiving every terminal outcome exactly once
// in virtual completion order. With onOutcome the session keeps no
// outcome past the epoch boundary after it streams; without it,
// ClusterSession.Outcome and the Result's Jobs keep them all.
func NewClusterSession(c *Cluster, onOutcome func(ClusterOutcome)) (*ClusterSession, error) {
	return c.NewSession(onOutcome)
}

// ReplayBatches re-runs a server's recorded admission sequence
// single-threaded on a fresh, identically configured cluster; the
// outcome stream delivered to onOutcome is bit-identical to what the
// live server emitted (DESIGN.md §15). With onOutcome the returned
// Result's Jobs is nil, as a server's is; without it the Result keeps
// every outcome.
func ReplayBatches(c *Cluster, batches []ServeBatch, onOutcome func(ClusterOutcome)) (*ClusterResult, error) {
	return serve.Replay(c, batches, onOutcome)
}

// WithServeQueueCap sets the admission queue's capacity (default
// 256): how many jobs may wait for the run loop before Submit blocks.
func WithServeQueueCap(n int) ServeOption { return serve.WithQueueCap(n) }

// WithServeBatchCap caps how many jobs one epoch admits (default
// unbounded): a full frontier splits into successive epochs instead
// of one giant batch.
func WithServeBatchCap(n int) ServeOption { return serve.WithBatchCap(n) }

// WithServeExporter attaches the OpenMetrics exporter to the server's
// /metrics endpoint, fed live at the end of every epoch with the
// snapshot of the epoch's last drain instant. Requires a cluster built
// WithClusterTelemetry.
func WithServeExporter(x *OpenMetricsExporter) ServeOption { return serve.WithExporter(x) }

// WithServeFlight attaches the flight recorder to the server's
// /flight endpoint, accumulating anomaly dumps live. Requires a
// cluster built WithClusterTelemetry.
func WithServeFlight(f *FlightRecorder) ServeOption { return serve.WithFlight(f) }

// DrainServer drains srv with the given wall-clock deadline — stop
// admission, finish the backlog, close subscriptions — and returns
// the final aggregate result, whose Jobs is nil: a server's outcomes
// leave through its subscriptions. Convenience over srv.Drain +
// srv.Result.
func DrainServer(srv *ClusterServer, timeout time.Duration) (*ClusterResult, error) {
	if err := srv.Drain(timeout); err != nil {
		return nil, err
	}
	return srv.Result()
}
