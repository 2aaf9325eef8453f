package pcie

import (
	"testing"
	"testing/quick"

	"micstream/internal/sim"
	"micstream/internal/trace"
)

const MB = int64(1 << 20)

func newLink(t *testing.T, cfg Config) (*sim.Engine, *Link, *trace.Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	rec := trace.NewRecorder()
	l, err := NewLink(eng, cfg, "mic0", rec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, l, rec
}

func TestDefaultConfigMatchesPaperCalibration(t *testing.T) {
	cfg := DefaultConfig()
	// Paper §IV-A-1: 32 × 1MB blocks ≈ 5.2 ms, 16 × 1MB ≈ 2.5 ms.
	t32 := sim.Duration(0)
	for i := 0; i < 32; i++ {
		t32 += cfg.TransferTime(MB)
	}
	if ms := t32.Milliseconds(); ms < 4.7 || ms > 5.7 {
		t.Fatalf("32x1MB = %.2fms, want ≈5.2ms", ms)
	}
	t16 := sim.Duration(0)
	for i := 0; i < 16; i++ {
		t16 += cfg.TransferTime(MB)
	}
	if ms := t16.Milliseconds(); ms < 2.2 || ms > 2.9 {
		t.Fatalf("16x1MB = %.2fms, want ≈2.5ms", ms)
	}
}

func TestTransferTimeAffine(t *testing.T) {
	cfg := Config{BandwidthBps: 1e9, LatencyNs: 1000}
	if got := cfg.TransferTime(0); got != 1000 {
		t.Fatalf("zero-byte transfer = %v, want latency only (1µs)", got)
	}
	if got := cfg.TransferTime(1e9); got != sim.Duration(1000)+sim.Second {
		t.Fatalf("1GB transfer = %v, want 1s + 1µs", got)
	}
	if got := cfg.TransferTime(-5); got != 1000 {
		t.Fatalf("negative size clamps to latency, got %v", got)
	}
}

func TestHalfDuplexSerializesDirections(t *testing.T) {
	_, l, _ := newLink(t, Config{BandwidthBps: 1e9, LatencyNs: 0})
	_, end1 := l.Transfer(H2D, 1000, 0, 0, 0, nil)
	start2, _ := l.Transfer(D2H, 1000, 0, 1, 1, nil)
	if start2 != end1 {
		t.Fatalf("D2H started at %v while H2D busy until %v: directions overlapped on half-duplex link", start2, end1)
	}
}

func TestFullDuplexOverlapsDirections(t *testing.T) {
	_, l, _ := newLink(t, Config{BandwidthBps: 1e9, LatencyNs: 0, FullDuplex: true})
	_, end1 := l.Transfer(H2D, 1000, 0, 0, 0, nil)
	start2, end2 := l.Transfer(D2H, 1000, 0, 1, 1, nil)
	if start2 != 0 {
		t.Fatalf("full-duplex D2H start = %v, want 0 (concurrent)", start2)
	}
	if end2 != end1 {
		t.Fatalf("symmetric transfers should finish together: %v vs %v", end1, end2)
	}
}

// The ID experiment of Fig. 5: with hd+dh = 16 constant, a half-duplex
// link yields constant total time regardless of the split — this is
// exactly how the paper concludes serialization.
func TestFig5IDSweepConstantOnHalfDuplex(t *testing.T) {
	cfg := DefaultConfig()
	var ref sim.Time
	for hd := 0; hd <= 16; hd++ {
		eng := sim.NewEngine()
		l, err := NewLink(eng, cfg, "mic0", nil)
		if err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		for i := 0; i < hd; i++ {
			_, last2 := l.Transfer(H2D, MB, 0, 0, i, nil)
			if last2 > last {
				last = last2
			}
		}
		for i := 0; i < 16-hd; i++ {
			_, last2 := l.Transfer(D2H, MB, 0, 0, i, nil)
			if last2 > last {
				last = last2
			}
		}
		if hd == 0 {
			ref = last
			continue
		}
		if last != ref {
			t.Fatalf("ID split hd=%d total=%v differs from ref %v: link not serializing", hd, last, ref)
		}
	}
}

// On a full-duplex link the ID sweep is NOT constant: time is dominated
// by the busier direction. This distinguishes the two modes and shows
// the ablation works.
func TestFig5IDSweepVariesOnFullDuplex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FullDuplex = true
	total := func(hd int) sim.Time {
		eng := sim.NewEngine()
		l, _ := NewLink(eng, cfg, "mic0", nil)
		var last sim.Time
		for i := 0; i < hd; i++ {
			_, e := l.Transfer(H2D, MB, 0, 0, i, nil)
			if e > last {
				last = e
			}
		}
		for i := 0; i < 16-hd; i++ {
			_, e := l.Transfer(D2H, MB, 0, 0, i, nil)
			if e > last {
				last = e
			}
		}
		return last
	}
	if total(8) >= total(0) {
		t.Fatalf("full-duplex balanced split (%v) should beat one-sided (%v)", total(8), total(0))
	}
}

func TestTransfersAreTraced(t *testing.T) {
	_, l, rec := newLink(t, DefaultConfig())
	l.Transfer(H2D, MB, 0, 3, 7, nil)
	l.Transfer(D2H, MB, 0, 4, 8, nil)
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("traced %d spans, want 2", len(spans))
	}
	if spans[0].Kind != trace.H2D || spans[0].Stream != 3 || spans[0].Task != 7 {
		t.Fatalf("bad H2D span: %+v", spans[0])
	}
	if spans[1].Kind != trace.D2H {
		t.Fatalf("bad D2H span: %+v", spans[1])
	}
}

func TestCompletionCallback(t *testing.T) {
	eng, l, _ := newLink(t, Config{BandwidthBps: 1e9, LatencyNs: 0})
	var doneAt sim.Time = -1
	l.Transfer(H2D, 1000, 0, 0, 0, sim.Func(func() { doneAt = eng.Now() }))
	eng.Run()
	if doneAt != sim.Time(1000) {
		t.Fatalf("completion at %v, want 1µs", doneAt)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewLink(eng, Config{BandwidthBps: 0}, "x", nil); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := NewLink(eng, Config{BandwidthBps: 1, LatencyNs: -1}, "x", nil); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestDirectionString(t *testing.T) {
	if H2D.String() != "H2D" || D2H.String() != "D2H" {
		t.Fatal("direction labels wrong")
	}
	if H2D.Kind() != trace.H2D || D2H.Kind() != trace.D2H {
		t.Fatal("direction→kind mapping wrong")
	}
}

// Property: total link busy time equals the sum of individual transfer
// times (work conservation: serialization never loses or creates work).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		cfg := Config{BandwidthBps: 1e6, LatencyNs: 100}
		l, _ := NewLink(eng, cfg, "m", nil)
		var want sim.Duration
		for i, s := range sizes {
			dir := H2D
			if i%2 == 1 {
				dir = D2H
			}
			l.Transfer(dir, int64(s), 0, 0, i, nil)
			want += cfg.TransferTime(int64(s))
		}
		return l.BusyTime(H2D) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Without a recorder a transfer builds no span and formats no label,
// so it allocates nothing.
func TestUntracedTransferZeroAlloc(t *testing.T) {
	l, err := NewLink(sim.NewEngine(), DefaultConfig(), "mic0", nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Transfer(H2D, MB, 0, 0, 0, nil)
	})
	if allocs != 0 {
		t.Fatalf("untraced Transfer allocated %.1f objects/op, want 0", allocs)
	}
}

// A stage recorder keeps no span, so a transfer formats no label and,
// once the recorder's interval slice is warm, allocates no more than
// without a recorder. A full recorder still labels every span.
func TestStageRecorderTransferFormatsNoLabel(t *testing.T) {
	allocs := func(rec *trace.Recorder) float64 {
		l, err := NewLink(sim.NewEngine(), DefaultConfig(), "mic0", rec)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(1000, func() { l.Transfer(H2D, 4096, 0, 0, 0, nil) })
	}
	if staged, bare := allocs(trace.NewStageRecorder()), allocs(nil); staged > bare {
		t.Fatalf("Transfer with a stage recorder allocated %.1f objects/op, without a recorder %.1f", staged, bare)
	}

	_, l, rec := newLink(t, DefaultConfig())
	l.Transfer(H2D, 4096, 0, 0, 0, nil)
	l.Transfer(D2H, 4096, 0, 0, 0, nil)
	if s := rec.Spans(); s[0].Label != "H2D 4096B" || s[1].Label != "D2H 4096B" {
		t.Fatalf("labels %q, %q; want \"H2D 4096B\", \"D2H 4096B\"", s[0].Label, s[1].Label)
	}
}
