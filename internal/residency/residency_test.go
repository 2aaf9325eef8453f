package residency

import (
	"reflect"
	"strings"
	"testing"

	"micstream/internal/workload"
)

func reg(ds string, first, tiles int, tileBytes int64) Region {
	return Region{Dataset: ds, First: first, Tiles: tiles, TileBytes: tileBytes}
}

func newTracker(t *testing.T, devices int, capacity int64) *Tracker {
	t.Helper()
	tr, err := New(devices, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1<<20); err == nil {
		t.Error("device count 0 accepted")
	}
	if _, err := New(2, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	tr := newTracker(t, 3, 0)
	if tr.Devices() != 3 || tr.Capacity() != 0 {
		t.Errorf("Devices/Capacity = %d/%d, want 3/0", tr.Devices(), tr.Capacity())
	}
}

func TestRegionValidation(t *testing.T) {
	cases := []struct {
		name    string
		regions []Region
		bad     string
	}{
		{"ok", []Region{reg("a", 0, 4, 256), reg("a", 4, 2, 256), reg("b", 0, 4, 128)}, ""},
		{"unnamed", []Region{reg("", 0, 1, 1)}, "no dataset"},
		{"negative-first", []Region{reg("a", -1, 1, 1)}, "negative first"},
		{"no-tiles", []Region{reg("a", 0, 0, 1)}, "covers no tiles"},
		{"no-bytes", []Region{reg("a", 0, 1, 0)}, "non-positive tile size"},
		{"self-overlap", []Region{reg("a", 0, 4, 1), reg("a", 3, 2, 1)}, "overlaps tile 3"},
		{"mixed-tile-size", []Region{reg("a", 0, 2, 256), reg("a", 2, 2, 512)}, "declares 512-byte tiles"},
	}
	for _, tc := range cases {
		err := Validate(tc.regions)
		if tc.bad == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.bad)
		}
	}
}

// TestCommitAccounting is the cold-miss-only contract: the hit/miss
// split always sums to the demanded bytes, Lookup agrees with the
// Commit that follows it, and a repeated read is all hits.
func TestCommitAccounting(t *testing.T) {
	tr := newTracker(t, 2, 0)
	reads := []Region{reg("panel", 0, 8, 1024), reg("halo", 2, 3, 512)}
	demand := TotalBytes(reads)
	if demand != 8*1024+3*512 {
		t.Fatalf("TotalBytes = %d", demand)
	}

	lh, lm := tr.Lookup(1, reads)
	hit, miss, rcpt := tr.Commit(1, reads)
	if lh != hit || lm != miss {
		t.Errorf("Lookup split (%d,%d) disagrees with Commit (%d,%d)", lh, lm, hit, miss)
	}
	if hit != 0 || miss != demand {
		t.Errorf("cold commit: hit=%d miss=%d, want 0/%d", hit, miss, demand)
	}
	if rcpt.InstalledBytes() != demand {
		t.Errorf("receipt installed %d bytes, want %d", rcpt.InstalledBytes(), demand)
	}
	if got := tr.ResidentBytes(1); got != demand {
		t.Errorf("ResidentBytes = %d, want %d", got, demand)
	}

	// Warm repeat: all hits, nothing newly installed.
	hit, miss, rcpt = tr.Commit(1, reads)
	if hit != demand || miss != 0 || rcpt.InstalledBytes() != 0 {
		t.Errorf("warm commit: hit=%d miss=%d installed=%d, want %d/0/0", hit, miss, rcpt.InstalledBytes(), demand)
	}

	// Partial overlap: only the new tiles miss.
	wider := []Region{reg("panel", 4, 8, 1024)} // tiles 4..11, 0..7 resident
	hit, miss, _ = tr.Commit(1, wider)
	if hit != 4*1024 || miss != 4*1024 {
		t.Errorf("overlapping commit: hit=%d miss=%d, want 4096/4096", hit, miss)
	}

	// The other device is untouched.
	if got := tr.ResidentBytes(0); got != 0 {
		t.Errorf("device 0 holds %d bytes, want 0", got)
	}
	st := tr.Stats()
	if st.HitBytes+st.MissBytes != 2*demand+8*1024 {
		t.Errorf("stats hit+miss = %d, want %d", st.HitBytes+st.MissBytes, 2*demand+8*1024)
	}
}

// TestAccountingProperty drives a seeded random op mix and checks the
// invariants the pricing layer depends on: every commit's split sums
// to its demand, Lookup always agrees with an immediately following
// Commit, and resident bytes never go negative or exceed capacity
// after enforcement.
func TestAccountingProperty(t *testing.T) {
	rng := workload.NewRNG(42)
	tr := newTracker(t, 3, 96<<10)
	datasets := []string{"a", "b", "c", "d"}
	for op := 0; op < 2000; op++ {
		dev := rng.Intn(3)
		reads := []Region{reg(datasets[rng.Intn(len(datasets))], rng.Intn(32), 1+rng.Intn(8), 1<<10)}
		switch rng.Intn(10) {
		case 0:
			tr.Invalidate(dev, reads, rng.Intn(2) == 0)
		case 1:
			if ev := tr.Enforce(dev); ev < 0 {
				t.Fatalf("op %d: negative eviction %d", op, ev)
			}
			if got := tr.ResidentBytes(dev); got > tr.Capacity() {
				t.Fatalf("op %d: device %d holds %d > capacity %d after Enforce", op, dev, got, tr.Capacity())
			}
		default:
			lh, lm := tr.Lookup(dev, reads)
			hit, miss, _ := tr.Commit(dev, reads)
			if hit != lh || miss != lm {
				t.Fatalf("op %d: Lookup (%d,%d) != Commit (%d,%d)", op, lh, lm, hit, miss)
			}
			if hit+miss != TotalBytes(reads) {
				t.Fatalf("op %d: hit %d + miss %d != demand %d", op, hit, miss, TotalBytes(reads))
			}
		}
		for d := 0; d < 3; d++ {
			if tr.ResidentBytes(d) < 0 {
				t.Fatalf("op %d: device %d negative residency", op, d)
			}
		}
	}
	st := tr.Stats()
	if st.HitBytes+st.MissBytes == 0 || st.Evictions == 0 {
		t.Fatalf("property run exercised too little: %+v", st)
	}
}

// TestBitIdenticalRepeats replays one seeded op sequence on two fresh
// trackers and demands identical observable state — the determinism
// rule every cluster feature inherits (DESIGN.md §6).
func TestBitIdenticalRepeats(t *testing.T) {
	run := func() (Stats, []int64) {
		rng := workload.NewRNG(7)
		tr, err := New(2, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 1000; op++ {
			dev := rng.Intn(2)
			reads := []Region{reg("ds"+string(rune('0'+rng.Intn(3))), rng.Intn(16), 1+rng.Intn(6), 2<<10)}
			switch rng.Intn(8) {
			case 0:
				tr.Invalidate(dev, reads, true)
			case 1:
				tr.EnforceAll()
			default:
				tr.Commit(dev, reads)
			}
		}
		resident := []int64{tr.ResidentBytes(0), tr.ResidentBytes(1)}
		return tr.Stats(), resident
	}
	s1, r1 := run()
	s2, r2 := run()
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("repeats diverge: %+v/%v vs %+v/%v", s1, r1, s2, r2)
	}
}

// TestLRUEvictionDeterministicUnderTies installs tiles that share one
// commit tick (an LRU tie) and checks eviction drops them in
// insertion-sequence order, not map order.
func TestLRUEvictionDeterministicUnderTies(t *testing.T) {
	tr := newTracker(t, 1, 3<<10)
	// One commit, four 1 KiB tiles — same tick, ascending seq 1..4.
	tr.Commit(0, []Region{reg("tied", 0, 4, 1<<10)})
	if got := tr.ResidentBytes(0); got != 4<<10 {
		t.Fatalf("ResidentBytes = %d, want %d", got, 4<<10)
	}
	if ev := tr.Enforce(0); ev != 1<<10 {
		t.Fatalf("Enforce evicted %d, want %d", ev, 1<<10)
	}
	// Tile 0 (lowest seq) must be the casualty: re-reading tile 0
	// misses, tiles 1..3 hit.
	hit, miss := tr.Lookup(0, []Region{reg("tied", 0, 4, 1<<10)})
	if hit != 3<<10 || miss != 1<<10 {
		t.Fatalf("after tied eviction: hit=%d miss=%d, want %d/%d", hit, miss, 3<<10, 1<<10)
	}
	if h, _ := tr.Lookup(0, []Region{reg("tied", 0, 1, 1<<10)}); h != 0 {
		t.Error("tile 0 survived; eviction order is not insertion order")
	}

	// Recency beats insertion order when ticks differ: touch tile 1,
	// add a new tile to overflow again — tile 2 (oldest untouched,
	// lowest seq) must go next.
	tr.Commit(0, []Region{reg("tied", 1, 1, 1<<10)}) // refresh tile 1
	tr.Commit(0, []Region{reg("fresh", 0, 1, 1<<10)})
	if ev := tr.Enforce(0); ev != 1<<10 {
		t.Fatalf("second Enforce evicted %d, want %d", ev, 1<<10)
	}
	if h, _ := tr.Lookup(0, []Region{reg("tied", 2, 1, 1<<10)}); h != 0 {
		t.Error("tile 2 survived; LRU ignored the refresh of tile 1")
	}
	if h, _ := tr.Lookup(0, []Region{reg("tied", 1, 1, 1<<10)}); h != 1<<10 {
		t.Error("refreshed tile 1 was evicted before older tiles")
	}
}

// TestInvalidationOnWrite checks the write protocol: a writer drops
// every other device's copy; its own copy survives only when the
// fresh bytes really live in its cache (off-origin writer).
func TestInvalidationOnWrite(t *testing.T) {
	tr := newTracker(t, 3, 0)
	d := []Region{reg("grid", 0, 4, 4<<10)}
	for dev := 0; dev < 3; dev++ {
		tr.Commit(dev, d)
	}

	// Off-origin writer on device 1: devices 0 and 2 invalidate,
	// device 1 keeps (and refreshes) its copy.
	tr.Invalidate(1, d, true)
	for dev, want := range []int64{0, d[0].Bytes(), 0} {
		hit, _ := tr.Lookup(dev, d)
		if hit != want {
			t.Errorf("after off-origin write: device %d hit %d, want %d", dev, hit, want)
		}
	}

	// Origin writer (resident=false): even the writer's own staged
	// copy is stale — the fresh bytes are in origin memory.
	for dev := 0; dev < 3; dev++ {
		tr.Commit(dev, d)
	}
	tr.Invalidate(1, d, false)
	for dev := 0; dev < 3; dev++ {
		if hit, _ := tr.Lookup(dev, d); hit != 0 {
			t.Errorf("after origin write: device %d still hits %d bytes", dev, hit)
		}
	}
	if tr.Stats().InvalidatedBytes == 0 {
		t.Error("no invalidated bytes counted")
	}
}

// TestRollbackRemovesOnlyUntouchedInstalls mirrors the steal-withdraw
// path: rolling back a commit removes what it installed, except tiles
// a later commit refreshed (that job's pricing already relied on
// them).
func TestRollbackRemovesOnlyUntouchedInstalls(t *testing.T) {
	tr := newTracker(t, 2, 0)
	_, _, rcpt := tr.Commit(0, []Region{reg("panel", 0, 4, 1<<10)})
	// A later job reads tiles 2..3 (refreshing their tick) before the
	// first job is withdrawn.
	tr.Commit(0, []Region{reg("panel", 2, 2, 1<<10)})
	tr.Rollback(rcpt)
	hit, miss := tr.Lookup(0, []Region{reg("panel", 0, 4, 1<<10)})
	if hit != 2<<10 || miss != 2<<10 {
		t.Fatalf("after rollback: hit=%d miss=%d, want refreshed tiles kept, others gone", hit, miss)
	}
	if tr.Stats().RolledBackBytes != 2<<10 {
		t.Errorf("RolledBackBytes = %d, want %d", tr.Stats().RolledBackBytes, 2<<10)
	}
	// Rolling back a zero receipt is a no-op.
	tr.Rollback(Receipt{})
}

// TestRollbackRegionsScopesToRemainder mirrors the mid-job migration
// path (DESIGN.md §13): the victim keeps the tiles the completed
// slices consumed — their transfer really ran — and only the migrated
// remainder's still-needed tiles roll back.
func TestRollbackRegionsScopesToRemainder(t *testing.T) {
	tr := newTracker(t, 2, 0)
	_, _, rcpt := tr.Commit(0, []Region{reg("panel", 0, 8, 1<<10)})
	// The job migrates after consuming tiles 0..3; tiles 4..7 back the
	// remainder and leave with it.
	removed := tr.RollbackRegions(rcpt, []Region{reg("panel", 4, 4, 1<<10)})
	if removed != 4<<10 {
		t.Fatalf("RollbackRegions removed %d bytes, want %d", removed, 4<<10)
	}
	hit, miss := tr.Lookup(0, []Region{reg("panel", 0, 8, 1<<10)})
	if hit != 4<<10 || miss != 4<<10 {
		t.Fatalf("after region rollback: hit=%d miss=%d, want consumed tiles kept, remainder gone", hit, miss)
	}
	if tr.Stats().RolledBackBytes != 4<<10 {
		t.Errorf("RolledBackBytes = %d, want %d", tr.Stats().RolledBackBytes, 4<<10)
	}
	// Tiles a later commit refreshed stay even inside the remainder
	// scope — the same protection plain Rollback gives.
	_, _, rcpt2 := tr.Commit(1, []Region{reg("panel", 0, 4, 1<<10)})
	tr.Commit(1, []Region{reg("panel", 0, 2, 1<<10)})
	if removed := tr.RollbackRegions(rcpt2, []Region{reg("panel", 0, 4, 1<<10)}); removed != 2<<10 {
		t.Fatalf("refreshed tiles rolled back: removed %d, want %d", removed, 2<<10)
	}
	// Empty scope and zero receipt are no-ops.
	if removed := tr.RollbackRegions(rcpt, nil); removed != 0 {
		t.Errorf("nil-scope rollback removed %d bytes", removed)
	}
	if removed := tr.RollbackRegions(Receipt{}, []Region{reg("panel", 0, 1, 1<<10)}); removed != 0 {
		t.Errorf("zero-receipt rollback removed %d bytes", removed)
	}
}

// TestResetColdsTheTracker checks Reset really restores a fresh
// tracker.
func TestResetColdsTheTracker(t *testing.T) {
	tr := newTracker(t, 2, 8<<10)
	tr.Commit(0, []Region{reg("x", 0, 16, 1<<10)})
	tr.EnforceAll()
	tr.Reset()
	if tr.ResidentBytes(0) != 0 || tr.ResidentBytes(1) != 0 {
		t.Error("Reset left resident bytes")
	}
	if got := tr.Stats(); got != (Stats{}) {
		t.Errorf("Reset left stats %+v", got)
	}
	hit, _, _ := func() (int64, int64, Receipt) { return tr.Commit(0, []Region{reg("x", 0, 1, 1<<10)}) }()
	if hit != 0 {
		t.Error("tracker not cold after Reset")
	}
}

// TestEnforceUnbounded: capacity 0 never evicts.
func TestEnforceUnbounded(t *testing.T) {
	tr := newTracker(t, 1, 0)
	tr.Commit(0, []Region{reg("big", 0, 1024, 1<<20)})
	if ev := tr.EnforceAll(); ev != 0 {
		t.Fatalf("unbounded tracker evicted %d bytes", ev)
	}
}

// BenchmarkResidencyLookup measures the read-only probe every
// placement score and steal estimate makes per candidate device, so its
// cost multiplies into the cluster's dispatch hot path.
func BenchmarkResidencyLookup(b *testing.B) {
	tr, err := New(4, 0)
	if err != nil {
		b.Fatal(err)
	}
	for ds := 0; ds < 16; ds++ {
		tr.Commit(ds%4, []Region{reg("ds"+string(rune('a'+ds)), 0, 64, 1<<20)})
	}
	probe := []Region{reg("dsc", 16, 32, 1<<20), reg("dsq", 0, 8, 1<<20)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(i%4, probe)
	}
}
