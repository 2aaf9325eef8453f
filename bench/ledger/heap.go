package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// heapSampler tracks the peak of the Go heap's in-use spans (MemStats
// HeapInuse: live objects plus the free space inside their spans),
// sampled every 5 ms through runtime/metrics, which unlike ReadMemStats
// does not stop the world. Sampling every 50 ms missed short-lived
// peaks: one paper-figures regeneration then read anywhere from 50 to
// 63 MiB, against 75 to 78 MiB at 5 ms.
type heapSampler struct {
	peak atomic.Uint64
	base uint64 // HeapInuse when the peak was last reset
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

var heapInuse = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func (h *heapSampler) sample() uint64 {
	s := make([]metrics.Sample, len(heapInuse))
	copy(s, heapInuse)
	metrics.Read(s)
	v := s[0].Value.Uint64() + s[1].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return v
		}
	}
}

// reset restarts the peak from the current heap.
func (h *heapSampler) reset() {
	h.peak.Store(0)
	h.base = h.sample()
}

// peakMiB samples once more and returns how far the heap rose above its
// level at reset. Rounds reset right after a forced collection, so the
// base holds the round's inputs and the ledger's own samples from
// earlier rounds, and the rise is what the program held to run the
// round — independent of how many rounds came before.
func (h *heapSampler) peakMiB() float64 {
	h.sample()
	return float64(h.peak.Load()-h.base) / (1 << 20)
}

// close stops the sampling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// meter brackets the measured part of one round: the garbage
// collections inside it and the peak heap.
type meter struct {
	h  *heapSampler
	ms runtime.MemStats
}

// startMeter collects garbage first, so the peak is measured from the
// round's live inputs alone.
func startMeter(h *heapSampler) meter {
	runtime.GC()
	m := meter{h: h}
	runtime.ReadMemStats(&m.ms)
	h.reset()
	return m
}

// roundStats is what a meter saw.
type roundStats struct {
	gcCycles float64
	gcPause  time.Duration
	peakMiB  float64
}

func (m meter) stop() roundStats {
	peak := m.h.peakMiB()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return roundStats{
		gcCycles: float64(end.NumGC - m.ms.NumGC),
		gcPause:  time.Duration(end.PauseTotalNs - m.ms.PauseTotalNs),
		peakMiB:  peak,
	}
}
