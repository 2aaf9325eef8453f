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
