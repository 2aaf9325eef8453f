package model

import (
	"fmt"

	"micstream/internal/core"
	"micstream/internal/sim"
)

// ClusterWorkload describes a workload split across the devices of a
// multi-MIC platform (the paper's §VI topology): the embedded Workload
// is the whole job, and StagingBytes quantifies the extra traffic the
// split costs — the tiles a partitioned computation must move through
// the host so a producer on one device can feed a consumer on another
// (Fig. 11's cross-device synchronization).
type ClusterWorkload struct {
	Workload
	// StagingBytes returns the bytes staged through the host per
	// round when the workload runs on the given device count. Each
	// staged byte crosses PCIe twice (D2H out of the producer, H2D
	// into the consumer), and the model charges both crossings
	// serialized — host memory is the rendezvous. nil or a zero
	// return means the split is free (fully independent tiles); one
	// device never stages.
	StagingBytes func(devices int) int64
}

// Split lifts a single-device workload to the cluster form with the
// given staging function.
func Split(w Workload, staging func(devices int) int64) ClusterWorkload {
	return ClusterWorkload{Workload: w, StagingBytes: staging}
}

// StagingOnly is a ClusterWorkload carrying no compute phases — only
// a host-staging charge of the given bytes, independent of the device
// count. PredictCluster evaluated on it prices exactly one staged
// transfer through the calibrated, contended link: each byte crosses
// PCIe twice (D2H out of the holder, H2D into the target), stretched
// by TransferScale and the shared-host contention factor. The cluster
// scheduler prices every residual staging decision — placement scores,
// steal gains — through this form, so one convention covers them all
// (DESIGN.md §9–§11).
func StagingOnly(name string, bytes int64) ClusterWorkload {
	return ClusterWorkload{
		Workload:     Workload{Name: name, Phases: func(int) []Phase { return nil }},
		StagingBytes: func(int) int64 { return bytes },
	}
}

// ClusterPrediction is the model's estimate of one multi-device
// configuration.
type ClusterPrediction struct {
	// Devices, Partitions and Tiles echo the predicted configuration
	// (partitions and tiles per device; Tiles is the workload-total
	// tile argument, split evenly with the remainder on the earliest
	// devices).
	Devices, Partitions, Tiles int
	// Wall is the predicted wall time: the slowest device's share
	// plus the staging traffic.
	Wall sim.Duration
	// GFlops is the predicted throughput over the workload's total
	// Flops (0 when unknown).
	GFlops float64
	// DeviceWall is the slowest device's predicted share alone.
	DeviceWall sim.Duration
	// StagingTime is the predicted host-staging cost per run.
	StagingTime sim.Duration
	// LinkContention is the factor by which the shared host PCIe
	// complex stretches every transfer (1 = dedicated links).
	LinkContention float64
	// Speedup is Wall's improvement over the same model's one-device
	// prediction — the Fig. 11 projection with staging accounted.
	Speedup float64
}

// Seconds returns the predicted wall time in seconds.
func (p ClusterPrediction) Seconds() float64 { return p.Wall.Seconds() }

// stagingTime charges bytes through the host: one D2H plus one H2D
// crossing at the effective (contended, calibrated) link rate.
func (m *Model) stagingTime(bytes int64, ts float64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(float64(2*m.xferTime(bytes, 1)) * ts)
}

// PredictStaging is the staging price of a StagingOnly workload of
// bytes on devices devices — PredictCluster's StagingTime for it, bit
// for bit — without building the workload or predicting its (empty)
// compute. The cluster prices every residual staging decision with it
// at each placement and steal instant (DESIGN.md §9–§11).
func (m *Model) PredictStaging(bytes int64, devices int) sim.Duration {
	if devices < 2 {
		return 0
	}
	ts, _ := m.scales()
	return m.stagingTime(bytes, ts*m.contention(devices))
}

// contention reports how much the shared host PCIe complex stretches
// concurrent per-device transfers: with devices links of the model's
// bandwidth behind a HostBandwidthBps root complex, demand beyond the
// ceiling serializes proportionally.
func (m *Model) contention(devices int) float64 {
	if m.HostBandwidthBps <= 0 || devices <= 1 {
		return 1
	}
	agg := float64(devices) * m.Link.BandwidthBps
	if agg <= m.HostBandwidthBps {
		return 1
	}
	return agg / m.HostBandwidthBps
}

// PredictCluster evaluates the closed-form model for the workload
// split across devices identical coprocessors, each split into
// partitions partitions. The per-device share is the original phase
// list with every phase's tile count divided by the device count
// (ceiling — the slowest device governs), transfers stretched by the
// shared-host contention factor; the staging traffic is appended
// serialized. PredictCluster(w, 1, P, T) equals Predict(w, P, T)
// whenever the host link is not the bottleneck.
func (m *Model) PredictCluster(cw ClusterWorkload, devices, partitions, tiles int) (ClusterPrediction, error) {
	if devices < 1 {
		return ClusterPrediction{}, fmt.Errorf("model: device count %d must be positive", devices)
	}
	layout := m.layout(partitions)
	if layout == nil {
		return ClusterPrediction{}, fmt.Errorf("model: partition count %d out of range [1,%d]", partitions, m.Dev.TotalThreads())
	}
	if tiles < 1 {
		return ClusterPrediction{}, fmt.Errorf("model: tile count %d must be positive", tiles)
	}
	if cw.Phases == nil {
		return ClusterPrediction{}, fmt.Errorf("model: workload %q has no phase description", cw.Name)
	}
	rounds := cw.Rounds
	if rounds < 1 {
		rounds = 1
	}
	spp := m.StreamsPerPartition
	if spp < 1 {
		spp = 1
	}
	streams := partitions * spp
	ts, cs := m.scales()
	cont := m.contention(devices)
	ts *= cont

	var devWall sim.Duration
	for _, ph := range cw.Phases(tiles) {
		if ph.Tiles < 1 {
			continue
		}
		share := ph
		share.Tiles = ceilDiv(ph.Tiles, devices)
		w, _, _, _ := m.phaseTimes(share, layout, partitions, streams, ts, cs)
		devWall += w + sim.Duration(ph.SerialNs)
	}
	devWall *= sim.Duration(rounds)

	var staging sim.Duration
	if cw.StagingBytes != nil && devices > 1 {
		staging = sim.Duration(rounds) * m.stagingTime(cw.StagingBytes(devices), ts)
	}

	// One-time serial ends: the prolog dataset ships to every device's
	// share in parallel (contended), the epilog reads back likewise.
	ends := sim.Duration(cw.PrologNs) + sim.Duration(cw.EpilogNs)
	if cw.PrologH2DBytes > 0 {
		ends += sim.Duration(float64(m.xferTime(ceilDiv64(cw.PrologH2DBytes, devices), 1)) * ts)
	}
	if cw.EpilogD2HBytes > 0 {
		ends += sim.Duration(float64(m.xferTime(ceilDiv64(cw.EpilogD2HBytes, devices), 1)) * ts)
	}

	p := ClusterPrediction{
		Devices:        devices,
		Partitions:     partitions,
		Tiles:          tiles,
		Wall:           devWall + staging + ends,
		DeviceWall:     devWall,
		StagingTime:    staging,
		LinkContention: cont,
	}
	if p.Wall > 0 && cw.Flops > 0 {
		p.GFlops = cw.Flops / p.Wall.Seconds() / 1e9
	}
	if devices > 1 {
		if one, err := m.PredictCluster(cw, 1, partitions, tiles); err == nil && p.Wall > 0 {
			p.Speedup = one.Wall.Seconds() / p.Wall.Seconds()
		}
	} else {
		p.Speedup = 1
	}
	return p, nil
}

// ceilDiv64 is ⌈a/b⌉ for positive b on int64 byte counts.
func ceilDiv64(a int64, b int) int64 {
	bb := int64(b)
	return (a + bb - 1) / bb
}

// ClusterEvalFunc adapts the multi-device model to the cluster tuner's
// measurement interface: an evaluation that predicts instead of
// simulating. Use it as the predict argument of core.TuneClusterGuided.
func (m *Model) ClusterEvalFunc(cw ClusterWorkload) core.ClusterEvalFunc {
	return func(devices, partitions, tiles int) (float64, error) {
		pred, err := m.PredictCluster(cw, devices, partitions, tiles)
		if err != nil {
			return 0, err
		}
		return pred.Seconds(), nil
	}
}
