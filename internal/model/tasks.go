package model

import (
	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/sim"
)

// specBytes is the byte volume of one transfer spec, derived from its
// buffer's element size.
func specBytes(x core.TransferSpec) int64 {
	if x.Buf == nil || x.Buf.Len() == 0 {
		return 0
	}
	return int64(float64(x.N) * float64(x.Buf.Bytes()) / float64(x.Buf.Len()))
}

// FromTasks summarizes an already-tiled task list as a one-phase
// workload: the tile count is the number of kernel-launching tasks and
// per-tile quantities are the list's totals divided evenly. Kernel
// knobs (efficiency, penalties, per-launch costs) are averaged across
// tasks weighted equally. The resulting workload ignores the tiles
// argument of its Phases description — the tiling is already fixed —
// so it suits prediction (Predict, ServiceTime), not retiling searches.
func FromTasks(name string, tasks []*core.Task) Workload {
	var (
		kernels                int
		flops, bytes, eff, sp  float64
		wsBytes, serial, alloc int64
		h2dBytes, d2hBytes     int64
		h2dXfers, d2hXfers     int
	)
	for _, t := range tasks {
		if t == nil {
			continue
		}
		for _, x := range t.H2D {
			h2dBytes += specBytes(x)
			h2dXfers++
		}
		for _, x := range t.D2H {
			d2hBytes += specBytes(x)
			d2hXfers++
		}
		if t.TransferOnly {
			continue
		}
		kernels++
		flops += t.Cost.Flops
		bytes += t.Cost.Bytes
		eff += t.Cost.Efficiency
		sp += t.Cost.ScalingPenalty
		wsBytes += t.Cost.WorkingSetBytes
		serial += t.Cost.SerialNs
		alloc += t.Cost.AllocBytesPerThread
	}
	w := Workload{Name: name, Flops: flops}
	if kernels == 0 && h2dXfers == 0 && d2hXfers == 0 {
		w.Phases = func(int) []Phase { return nil }
		return w
	}
	n := kernels
	if n == 0 {
		n = 1
	}
	cost := device.KernelCost{
		Name:                name,
		Flops:               flops / float64(n),
		Bytes:               bytes / float64(n),
		SerialNs:            serial / int64(n),
		AllocBytesPerThread: alloc / int64(n),
		WorkingSetBytes:     wsBytes / int64(n),
		Efficiency:          eff / float64(n),
		ScalingPenalty:      sp / float64(n),
	}
	ph := Phase{
		Tiles:           n,
		H2DBytesPerTile: h2dBytes / int64(n),
		D2HBytesPerTile: d2hBytes / int64(n),
		H2DXfersPerTile: ceilDiv(h2dXfers, n),
		D2HXfersPerTile: ceilDiv(d2hXfers, n),
		HasKernel:       kernels > 0,
		Cost:            cost,
	}
	w.Phases = func(int) []Phase { return []Phase{ph} }
	return w
}

// ServiceTime predicts how long a job's task list occupies one stream
// of a platform split into partitions partitions: the serial sum of
// each task's kernel time on one partition plus the link time of its
// declared transfers, FIFO order, no cross-job overlap. It is the
// model-backed replacement for ranking-only service estimates — the
// same closed forms as Predict, so scheduler decisions and tuner
// decisions agree about the hardware.
func (m *Model) ServiceTime(tasks []*core.Task, partitions int) sim.Duration {
	layout := m.layout(partitions)
	if layout == nil {
		return 0
	}
	// A job may land on any stream; predict against the slowest
	// partition so estimates rank jobs consistently with Predict.
	kernel := func(c *device.KernelCost) sim.Duration {
		var worst sim.Duration
		for i := range layout {
			if kt := m.Dev.KernelTimeOn(c, &layout[i], partitions); kt > worst {
				worst = kt
			}
		}
		return worst
	}
	ts, cs := m.scales()
	var total sim.Duration
	for _, t := range tasks {
		if t == nil {
			continue
		}
		if !t.TransferOnly {
			total += sim.Duration(float64(kernel(&t.Cost)) * cs)
		}
		for _, specs := range [][]core.TransferSpec{t.H2D, t.D2H} {
			for _, x := range specs {
				if b := specBytes(x); b > 0 {
					total += sim.Duration(float64(m.xferTime(b, 1)) * ts)
				}
			}
		}
	}
	if total <= 0 {
		total = 1
	}
	return total
}
