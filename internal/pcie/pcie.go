// Package pcie models the host↔coprocessor interconnect of the
// reproduced platform: the PCIe link plus the MPSS DMA engine that
// hStreams drives on a real Xeon Phi system.
//
// The paper's first microbenchmark finding (§IV-A-1, Fig. 5) is that
// data transfers in the two directions are performed *serially* on the
// Phi — the link behaves as half-duplex even though PCIe itself is
// full-duplex, because the DMA path through MPSS serializes them. This
// package therefore defaults to a single shared DMA server for both
// directions, with an optional full-duplex mode (two independent
// servers) kept as an ablation so the experiment can show what the
// figure would look like on hardware with concurrent bidirectional DMA.
//
// Transfer cost is the usual latency + size/bandwidth affine model,
// calibrated against the paper's absolute measurements: 32 × 1 MB
// blocks ≈ 5.2 ms and 16 × 1 MB ≈ 2.5 ms give ≈ 6.5 GB/s with ≈ 10 µs
// of per-transfer setup latency.
package pcie

import (
	"fmt"

	"micstream/internal/sim"
	"micstream/internal/trace"
)

// Direction of a transfer, named after the paper's stage labels.
type Direction uint8

const (
	// H2D moves a block from host memory to device memory.
	H2D Direction = iota
	// D2H moves a block from device memory to host memory.
	D2H
)

// String returns the paper's stage label for the direction.
func (d Direction) String() string {
	if d == H2D {
		return "H2D"
	}
	return "D2H"
}

// Kind converts the direction into the equivalent trace span class.
func (d Direction) Kind() trace.Kind {
	if d == H2D {
		return trace.H2D
	}
	return trace.D2H
}

// Config describes a link.
type Config struct {
	// BandwidthBps is the sustained DMA bandwidth in bytes/second.
	BandwidthBps float64
	// LatencyNs is the fixed per-transfer setup cost in nanoseconds
	// (descriptor setup, doorbell, completion interrupt).
	LatencyNs int64
	// FullDuplex lets H2D and D2H proceed concurrently. The real
	// MIC platform measured by the paper is half-duplex; full-duplex
	// exists for the ablation benchmark.
	FullDuplex bool
}

// DefaultConfig returns the link calibrated to the paper's platform
// (Intel MPSS 3.5.2 over PCIe gen2 x16 to a Xeon Phi 31SP).
func DefaultConfig() Config {
	return Config{
		BandwidthBps: 6.5e9,
		LatencyNs:    10_000,
		FullDuplex:   false,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BandwidthBps <= 0 {
		return fmt.Errorf("pcie: bandwidth must be positive, got %g", c.BandwidthBps)
	}
	if c.LatencyNs < 0 {
		return fmt.Errorf("pcie: latency must be non-negative, got %d", c.LatencyNs)
	}
	return nil
}

// TransferTime returns the modeled duration of moving n bytes.
func (c Config) TransferTime(n int64) sim.Duration {
	if n < 0 {
		n = 0
	}
	return sim.Duration(c.LatencyNs) + sim.DurationOf(float64(n)/c.BandwidthBps)
}

// Link is a DMA engine attached to one device.
type Link struct {
	cfg  Config
	name string
	rec  *trace.Recorder
	h2d  *sim.Server
	d2h  *sim.Server // == h2d when half-duplex
}

// NewLink builds a link on the engine. name scopes trace resources
// (e.g. "mic0"); rec may be nil to disable tracing.
func NewLink(eng *sim.Engine, cfg Config, name string, rec *trace.Recorder) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Link{cfg: cfg, name: name, rec: rec}
	l.h2d = sim.NewServer(eng, name+"/pcie")
	if cfg.FullDuplex {
		l.d2h = sim.NewServer(eng, name+"/pcie-d2h")
	} else {
		l.d2h = l.h2d
	}
	return l, nil
}

// Config returns the link's configuration.
func (l *Link) Config() Config { return l.cfg }

// Transfer schedules a DMA of n bytes in the given direction, becoming
// eligible at ready. done (optional) fires at completion. The stream
// and task ids annotate the trace.
func (l *Link) Transfer(dir Direction, n int64, ready sim.Time, stream, task int, done sim.Handler) (start, end sim.Time) {
	srv := l.h2d
	if dir == D2H {
		srv = l.d2h
	}
	start, end = srv.Reserve(ready, l.cfg.TransferTime(n), done)
	if l.rec == nil {
		return start, end
	}
	var label string
	if l.rec.KeepsSpans() {
		label = fmt.Sprintf("%s %dB", dir, n)
	}
	l.rec.Add(trace.Span{
		Resource: srv.Name(),
		Stream:   stream,
		Task:     task,
		Kind:     dir.Kind(),
		Label:    label,
		Start:    start,
		End:      end,
	})
	return start, end
}

// TotalBusy reports the link's cumulative DMA occupancy across both
// directions without double counting: the half-duplex link serializes
// both directions through one server, the full-duplex one sums its
// two. This is the sim.Server accounting the cluster surfaces as
// per-device link utilization.
func (l *Link) TotalBusy() sim.Duration {
	if l.cfg.FullDuplex {
		return l.h2d.Busy() + l.d2h.Busy()
	}
	return l.h2d.Busy()
}

// BusyTime reports cumulative DMA occupancy in the given direction.
func (l *Link) BusyTime(dir Direction) sim.Duration {
	if dir == D2H && l.cfg.FullDuplex {
		return l.d2h.Busy()
	}
	if l.cfg.FullDuplex {
		return l.h2d.Busy()
	}
	// Half-duplex: one server carries both directions; per-direction
	// split comes from the trace, total from the server.
	return l.h2d.Busy()
}
