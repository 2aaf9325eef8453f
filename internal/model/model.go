// Package model is the analytic performance model: closed-form
// predictions of wall time, overlap efficiency and GFLOPS for any
// (partitions, tiles) configuration of a tiled-offload workload,
// without running the discrete-event simulation.
//
// The paper discovers good configurations by measurement; its
// follow-ups (arXiv:1608.03044, arXiv:2003.04294) replace the
// exhaustive (P, T) search with a predictive model that picks the
// configuration directly. This package is that layer for the simulated
// platform. A prediction composes three closed forms:
//
//   - the kernel term reuses device.Config.KernelTimeOn — the exact
//     equation the simulator charges (DESIGN.md §2), evaluated on the
//     partition shapes of device.Config.PartitionLayout;
//   - the transfer term is pcie.Config.TransferTime aggregated over a
//     phase's tiles, serialized on the half-duplex link (§3);
//   - the pipeline composition approximates the schedule: per phase,
//     wall ≈ max(link demand + one exposed kernel, fill + per-partition
//     compute demand + drain), exact in both asymptotic regimes
//     (transfer-bound and compute-bound) and within a few percent in
//     between (DESIGN.md §8 derives the equations).
//
// Model.Fit calibrates two regime scale factors against a handful of
// simulated probe runs; Model.BestConfig/TopK rank a core.SearchSpace
// so a tuner can confirm only the most promising candidates by
// simulation (core.TuneGuided).
package model

import (
	"fmt"
	"maps"
	"math"
	"sync/atomic"

	"micstream/internal/device"
	"micstream/internal/pcie"
	"micstream/internal/sim"
)

// Phase is one barrier-separated stage of a workload: Tiles tasks, each
// moving H2DBytesPerTile in, running one kernel, and moving
// D2HBytesPerTile out. Transfer-only stages leave HasKernel false;
// kernel-only stages leave the byte counts zero.
type Phase struct {
	// Tiles is the number of tasks in the phase.
	Tiles int
	// H2DBytesPerTile and D2HBytesPerTile are one tile's transfer
	// volumes.
	H2DBytesPerTile, D2HBytesPerTile int64
	// H2DXfersPerTile and D2HXfersPerTile are one tile's transfer
	// counts (setup-latency terms); 0 means 1 when the matching byte
	// count is positive.
	H2DXfersPerTile, D2HXfersPerTile int
	// HasKernel marks phases that launch kernels.
	HasKernel bool
	// Cost is one tile's kernel cost (ignored unless HasKernel).
	Cost device.KernelCost
	// SerialNs is host-side serial time after the phase's barrier
	// (e.g. a reduction on the host between iterations).
	SerialNs int64
}

// Workload describes a tunable application to the model: a sequence of
// phases, repeated Rounds times, bracketed by one-time serial costs.
// Phases is a function of the tile count so the same workload describes
// every point of the (P, T) plane; descriptions are pure functions and
// must be deterministic.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Flops is the total useful floating-point work (GFLOPS metric).
	Flops float64
	// Rounds is how many times the phase sequence repeats (an
	// iterative solver's outer loop); 0 means 1.
	Rounds int
	// PrologNs and EpilogNs are one-time serial durations outside the
	// rounds.
	PrologNs, EpilogNs int64
	// PrologH2DBytes and EpilogD2HBytes are one-time bulk transfers
	// outside the rounds (a resident dataset shipped in before the
	// first round, the final result read back after the last),
	// charged at link rate with one setup latency each.
	PrologH2DBytes, EpilogD2HBytes int64
	// Phases returns one round's phases at the given tile count.
	Phases func(tiles int) []Phase
}

// SplitCost divides a whole-workload kernel cost evenly across tiles:
// Flops, Bytes and WorkingSetBytes are per-tile shares; per-launch
// fields (SerialNs, AllocBytesPerThread) and quality knobs
// (Efficiency, penalties) are unchanged.
func SplitCost(c device.KernelCost, tiles int) device.KernelCost {
	if tiles < 1 {
		tiles = 1
	}
	c.Flops /= float64(tiles)
	c.Bytes /= float64(tiles)
	c.WorkingSetBytes /= int64(tiles)
	return c
}

// Uniform describes the generic overlappable workload (cmd/mictune's
// synthetic shape, Fig. 4's flow): one phase of tiles tasks evenly
// splitting a total kernel cost and per-direction transfer volume.
// template's Flops and Bytes are workload totals.
func Uniform(name string, h2dBytes, d2hBytes int64, template device.KernelCost) Workload {
	return Workload{
		Name:  name,
		Flops: template.Flops,
		Phases: func(tiles int) []Phase {
			if tiles < 1 {
				tiles = 1
			}
			return []Phase{{
				Tiles:           tiles,
				H2DBytesPerTile: h2dBytes / int64(tiles),
				D2HBytesPerTile: d2hBytes / int64(tiles),
				HasKernel:       true,
				Cost:            SplitCost(template, tiles),
			}}
		},
	}
}

// Prediction is the model's estimate of one configuration.
type Prediction struct {
	// Partitions and Tiles echo the predicted configuration.
	Partitions, Tiles int
	// Wall is the predicted wall time.
	Wall sim.Duration
	// GFlops is the predicted throughput (0 when the workload's Flops
	// is unknown).
	GFlops float64
	// Overlap is the predicted fraction of transfer time hidden
	// behind kernel execution.
	Overlap float64
	// LinkBusy is the predicted total link occupancy.
	LinkBusy sim.Duration
	// ComputeBusy is the predicted busiest-partition kernel occupancy.
	ComputeBusy sim.Duration
	// TransferBound reports which closed form dominated the
	// prediction: true when the link demand sets the wall time.
	TransferBound bool
}

// Seconds returns the predicted wall time in seconds.
func (p Prediction) Seconds() float64 { return p.Wall.Seconds() }

// Model predicts configurations for one platform. The zero scales mean
// uncalibrated (1.0); Fit adjusts them against simulated probes.
type Model struct {
	// Dev is the coprocessor model the predictions target.
	Dev device.Config
	// Link is the PCIe model the predictions target.
	Link pcie.Config
	// StreamsPerPartition mirrors the platform's stream binding
	// (default 1). Streams sharing a partition serialize on it, so the
	// value only matters for the single-stream degenerate case.
	StreamsPerPartition int
	// TransferScale and ComputeScale are the calibration factors Fit
	// sets: predicted link and kernel demands are multiplied by them.
	// 0 means 1 (uncalibrated).
	TransferScale, ComputeScale float64
	// HostBandwidthBps caps the aggregate bandwidth of all device
	// links at the host side (the shared PCIe root complex); 0 means
	// unconstrained (each device owns a dedicated full-rate link).
	// Only PredictCluster consults it — single-device predictions see
	// one link by construction.
	HostBandwidthBps float64

	// layouts memoizes Dev.PartitionLayout per partition count; nil (a
	// Model not built by New) recomputes every time.
	layouts *layoutCache
}

// New builds an uncalibrated model of the given platform.
func New(dev device.Config, link pcie.Config) *Model {
	return &Model{Dev: dev, Link: link, layouts: new(layoutCache)}
}

// layoutCache holds the partition layouts of one device config. It is
// an immutable snapshot behind an atomic pointer, replaced whole on a
// miss, so concurrent predictions on one Model stay race-free and a hit
// costs a load and a map lookup.
type layoutCache struct {
	snap atomic.Pointer[layoutSnap]
}

type layoutSnap struct {
	dev device.Config
	byN map[int][]device.PartitionShape
}

// layout returns Dev.PartitionLayout(n), memoized per partition count
// while Dev is unchanged (the layout is a pure function of the config).
// The result is shared: callers must not modify it.
func (m *Model) layout(n int) []device.PartitionShape {
	c := m.layouts
	if c == nil {
		return m.Dev.PartitionLayout(n)
	}
	old := c.snap.Load()
	if old != nil && old.dev == m.Dev {
		if l, ok := old.byN[n]; ok {
			return l
		}
	}
	l := m.Dev.PartitionLayout(n)
	next := &layoutSnap{dev: m.Dev, byN: map[int][]device.PartitionShape{n: l}}
	if old != nil && old.dev == m.Dev {
		maps.Copy(next.byN, old.byN)
	}
	c.snap.Store(next)
	return l
}

// Calibration returns the effective calibration factors (1 when
// uncalibrated) — the drift audit records them in its artifact so an
// error histogram is attributable to a specific calibration state.
func (m *Model) Calibration() (transfer, compute float64) { return m.scales() }

// scales returns the effective calibration factors.
func (m *Model) scales() (ts, cs float64) {
	ts, cs = m.TransferScale, m.ComputeScale
	if ts <= 0 {
		ts = 1
	}
	if cs <= 0 {
		cs = 1
	}
	return ts, cs
}

// xferTime is one tile's link occupancy for bytes split over xfers
// setup latencies (xfers 0 means 1 when bytes move): the §3 transfer
// closed form plus the extra per-transfer setups.
func (m *Model) xferTime(bytes int64, xfers int) sim.Duration {
	if bytes <= 0 && xfers <= 0 {
		return 0
	}
	if xfers < 1 {
		xfers = 1
	}
	return m.Link.TransferTime(bytes) +
		sim.Duration(xfers-1)*sim.Duration(m.Link.LatencyNs)
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// phaseTimes evaluates the closed forms for one phase on a device
// split into the given layout with streams logical streams, under the
// effective calibration factors (ts, cs). It returns the phase's wall
// time, link occupancy, busiest-partition compute occupancy, and
// whether the link demand set the wall time. Predict and PredictCluster
// share it so single- and multi-device predictions agree about the
// hardware.
func (m *Model) phaseTimes(ph Phase, layout []device.PartitionShape, partitions, streams int, ts, cs float64) (wall, link, compute sim.Duration, transferBound bool) {
	th := sim.Duration(float64(m.xferTime(ph.H2DBytesPerTile, ph.H2DXfersPerTile)) * ts)
	td := sim.Duration(float64(m.xferTime(ph.D2HBytesPerTile, ph.D2HXfersPerTile)) * ts)
	var tk sim.Duration
	if ph.HasKernel {
		// The slowest partition governs the phase's finish: a
		// non-divisor split leaves some partitions smaller and
		// core-sharing, and round-robin placement hands them the
		// same tile count as everyone else (the Fig. 9
		// divisor-of-56 effect, predicted instead of measured).
		for i := range layout {
			if kt := m.Dev.KernelTimeOn(&ph.Cost, &layout[i], partitions); kt > tk {
				tk = kt
			}
		}
		tk = sim.Duration(float64(tk) * cs)
	}
	n := sim.Duration(ph.Tiles)
	inBusy, outBusy := n*th, n*td
	var phaseLink sim.Duration
	if m.Link.FullDuplex {
		phaseLink = inBusy
		if outBusy > phaseLink {
			phaseLink = outBusy
		}
	} else {
		phaseLink = inBusy + outBusy
	}
	phaseCompute := sim.Duration(ceilDiv(ph.Tiles, partitions)) * tk

	var phaseWall sim.Duration
	if streams == 1 {
		// One stream: FIFO serializes every stage of every tile.
		phaseWall = n * (th + tk + td)
	} else {
		// Stream FIFO means a stream's next input waits for its
		// previous output, so one stream pipelines nothing; the
		// phase's wall time is the slowest stream's cycle chain,
		// bounded below by the busiest partition's kernels and —
		// when the link saturates — by the total link demand.
		sEff := streams
		if ph.Tiles < sEff {
			sEff = ph.Tiles
		}
		cycle := th + tk + td
		// Steady-state link contention: a stream's transfers
		// queue behind the other streams' in proportion to how
		// much of a cycle the link spends serving everyone.
		var wait sim.Duration
		if cycle > 0 && !m.Link.FullDuplex {
			rho := float64(sEff) * float64(th+td) / float64(cycle)
			if rho > 1 {
				rho = 1
			}
			wait = sim.Duration(rho * float64(th+td))
		}
		// First inputs serialize on the link (stagger), then each
		// stream runs its tiles' cycles, all but the first paying
		// the contention wait. Round-robin placement hands the
		// remainder tiles to the earliest-started streams, so the
		// last finisher is either the deepest-staggered stream
		// with ⌊T/S⌋ tiles or the last remainder stream with one
		// tile more — whichever chain runs longer.
		q := ph.Tiles / sEff
		r := ph.Tiles % sEff
		var chain sim.Duration
		if q > 0 {
			chain = sim.Duration(sEff-1)*th +
				sim.Duration(q)*cycle + sim.Duration(q-1)*wait
		}
		if r > 0 {
			withExtra := sim.Duration(r-1)*th +
				sim.Duration(q+1)*cycle + sim.Duration(q)*wait
			if withExtra > chain {
				chain = withExtra
			}
		}
		partBound := th + phaseCompute + td
		if partBound > chain {
			chain = partBound
		}
		if phaseLink >= chain {
			// Link-saturated: transfers run back to back and the
			// last tile's kernel is exposed at the end.
			phaseWall = phaseLink + tk
			transferBound = true
		} else {
			phaseWall = chain
		}
	}
	return phaseWall, phaseLink, phaseCompute, transferBound
}

// Predict evaluates the closed-form model at one (partitions, tiles)
// point. tiles is passed to the workload's Phases description, so its
// meaning (tile count, grid edge, stripe count) is the workload's own —
// the same argument its simulated Run takes.
func (m *Model) Predict(w Workload, partitions, tiles int) (Prediction, error) {
	layout := m.layout(partitions)
	if layout == nil {
		return Prediction{}, fmt.Errorf("model: partition count %d out of range [1,%d]", partitions, m.Dev.TotalThreads())
	}
	if tiles < 1 {
		return Prediction{}, fmt.Errorf("model: tile count %d must be positive", tiles)
	}
	if w.Phases == nil {
		return Prediction{}, fmt.Errorf("model: workload %q has no phase description", w.Name)
	}
	rounds := w.Rounds
	if rounds < 1 {
		rounds = 1
	}
	spp := m.StreamsPerPartition
	if spp < 1 {
		spp = 1
	}
	streams := partitions * spp
	ts, cs := m.scales()

	var wall, linkBusy, computeBusy sim.Duration
	var serial sim.Duration
	transferBound := false
	for _, ph := range w.Phases(tiles) {
		if ph.Tiles < 1 {
			continue
		}
		phaseWall, phaseLink, phaseCompute, tb := m.phaseTimes(ph, layout, partitions, streams, ts, cs)
		if tb {
			transferBound = true
		}
		wall += phaseWall + sim.Duration(ph.SerialNs)
		serial += sim.Duration(ph.SerialNs)
		linkBusy += phaseLink
		computeBusy += phaseCompute
	}
	wall *= sim.Duration(rounds)
	serial *= sim.Duration(rounds)
	linkBusy *= sim.Duration(rounds)
	computeBusy *= sim.Duration(rounds)
	ends := sim.Duration(w.PrologNs) + sim.Duration(w.EpilogNs)
	if w.PrologH2DBytes > 0 {
		ends += sim.Duration(float64(m.xferTime(w.PrologH2DBytes, 1)) * ts)
	}
	if w.EpilogD2HBytes > 0 {
		ends += sim.Duration(float64(m.xferTime(w.EpilogD2HBytes, 1)) * ts)
	}
	wall += ends

	p := Prediction{
		Partitions:    partitions,
		Tiles:         tiles,
		Wall:          wall,
		LinkBusy:      linkBusy,
		ComputeBusy:   computeBusy,
		TransferBound: transferBound,
	}
	if wall > 0 && w.Flops > 0 {
		p.GFlops = w.Flops / wall.Seconds() / 1e9
	}
	if linkBusy > 0 {
		exposed := wall - computeBusy - serial - ends
		p.Overlap = math.Min(1, math.Max(0, 1-float64(exposed)/float64(linkBusy)))
	}
	return p, nil
}
