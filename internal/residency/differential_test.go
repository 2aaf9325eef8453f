package residency

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"micstream/internal/workload"
)

// refTile identifies a resident tile of the reference tracker.
type refTile struct {
	dataset string
	tile    int
}

// refEntry is one resident tile of the reference tracker.
type refEntry struct {
	bytes     int64
	used, seq uint64
}

// refReceipt lists the tiles one reference commit installed.
type refReceipt struct {
	dev       int
	tick      uint64
	installed []refTile
}

// refTracker is the tracker's specification written the slow, obvious
// way: one map of tiles per device, a full sort by (used, seq) at every
// Enforce, and receipts that list the tiles they installed.
type refTracker struct {
	devs     []map[refTile]refEntry
	used     []int64
	capacity int64
	clock    uint64
	seq      uint64
	stats    Stats
}

func newRef(devices int, capacity int64) *refTracker {
	r := &refTracker{devs: make([]map[refTile]refEntry, devices), used: make([]int64, devices), capacity: capacity}
	for d := range r.devs {
		r.devs[d] = map[refTile]refEntry{}
	}
	return r
}

func (r *refTracker) lookup(dev int, regions []Region) (hit, miss int64) {
	r.stats.Lookups++
	for _, g := range regions {
		for tile := g.First; tile < g.First+g.Tiles; tile++ {
			if _, ok := r.devs[dev][refTile{g.Dataset, tile}]; ok {
				hit += g.TileBytes
			} else {
				miss += g.TileBytes
			}
		}
	}
	return hit, miss
}

// stamp refreshes or installs one tile at the current tick and reports
// whether it installed it.
func (r *refTracker) stamp(dev int, k refTile, bytes int64) bool {
	if e, ok := r.devs[dev][k]; ok {
		r.used[dev] += bytes - e.bytes
		e.bytes, e.used = bytes, r.clock
		r.devs[dev][k] = e
		return false
	}
	r.seq++
	r.devs[dev][k] = refEntry{bytes: bytes, used: r.clock, seq: r.seq}
	r.used[dev] += bytes
	return true
}

func (r *refTracker) commit(dev int, reads []Region) (hit, miss int64, rc refReceipt) {
	r.stats.Commits++
	r.clock++
	rc = refReceipt{dev: dev, tick: r.clock}
	for _, g := range reads {
		for tile := g.First; tile < g.First+g.Tiles; tile++ {
			k := refTile{g.Dataset, tile}
			if r.stamp(dev, k, g.TileBytes) {
				miss += g.TileBytes
				rc.installed = append(rc.installed, k)
			} else {
				hit += g.TileBytes
			}
		}
	}
	r.stats.HitBytes += hit
	r.stats.MissBytes += miss
	return hit, miss, rc
}

func (r *refTracker) drop(dev int, k refTile) int64 {
	e := r.devs[dev][k]
	delete(r.devs[dev], k)
	r.used[dev] -= e.bytes
	return e.bytes
}

// rollback removes the receipt's installs that still carry its tick,
// limited to regions unless regions is nil.
func (r *refTracker) rollback(rc refReceipt, regions []Region) int64 {
	var removed int64
	for _, k := range rc.installed {
		if regions != nil && !slices.ContainsFunc(regions, func(g Region) bool {
			return g.Dataset == k.dataset && k.tile >= g.First && k.tile < g.First+g.Tiles
		}) {
			continue
		}
		if e, ok := r.devs[rc.dev][k]; ok && e.used == rc.tick {
			removed += r.drop(rc.dev, k)
		}
	}
	r.stats.RolledBackBytes += removed
	return removed
}

func (r *refTracker) invalidate(dev int, writes []Region, resident bool) {
	if len(writes) == 0 {
		return
	}
	r.clock++
	for d := range r.devs {
		if d == dev && resident {
			continue
		}
		for _, g := range writes {
			for tile := g.First; tile < g.First+g.Tiles; tile++ {
				k := refTile{g.Dataset, tile}
				if _, ok := r.devs[d][k]; ok {
					r.stats.InvalidatedBytes += r.drop(d, k)
					r.stats.Invalidations++
				}
			}
		}
	}
	if resident {
		for _, g := range writes {
			for tile := g.First; tile < g.First+g.Tiles; tile++ {
				r.stamp(dev, refTile{g.Dataset, tile}, g.TileBytes)
			}
		}
	}
}

func (r *refTracker) enforce(dev int) int64 {
	if r.capacity <= 0 || r.used[dev] <= r.capacity {
		return 0
	}
	type victim struct {
		k refTile
		e refEntry
	}
	var vs []victim
	for k, e := range r.devs[dev] { // sorted below
		vs = append(vs, victim{k, e})
	}
	slices.SortFunc(vs, func(a, b victim) int {
		if c := cmp.Compare(a.e.used, b.e.used); c != 0 {
			return c
		}
		return cmp.Compare(a.e.seq, b.e.seq)
	})
	var evicted int64
	for _, v := range vs {
		if r.used[dev] <= r.capacity {
			break
		}
		evicted += r.drop(dev, v.k)
		r.stats.Evictions++
	}
	r.stats.EvictedBytes += evicted
	return evicted
}

// Property: over seeded random sequences of Commit, Lookup, Invalidate,
// Rollback, RollbackRegions and Enforce, the tracker behaves exactly as
// the reference. Every call returns the same bytes, and after every
// operation the two agree on Stats, on each device's ResidentBytes
// and on which tiles each device holds. Tile sizes differ between
// datasets, and now and then a declaration disagrees with an earlier
// one, so evicting or rolling back the wrong tile changes the bytes.
// Regions are drawn from a small universe, so tiles are shared,
// refreshed out of insertion order and tied on ticks.
func TestPropertyTrackerMatchesReference(t *testing.T) {
	const devices, tilesPerSet = 3, 12
	datasets := []string{"a", "b", "c", "d"}
	sizes := []int64{1 << 10, 3 << 10, 2 << 10, 5 << 10}
	for trial := uint64(0); trial < 60; trial++ {
		rng := workload.NewRNG(trial + 1)
		capacity := []int64{0, 8 << 10, 24 << 10, 40 << 10}[trial%4]
		tr, err := New(devices, capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(devices, capacity)
		// regions draws a non-overlapping list: at most one region per
		// dataset, starting from a random dataset in either direction.
		regions := func() []Region {
			var out []Region
			start, step := rng.Intn(len(datasets)), 1+2*rng.Intn(2)
			for j := range 1 + rng.Intn(3) {
				i := (start + j*step) % len(datasets)
				first := rng.Intn(tilesPerSet)
				size := sizes[i]
				if rng.Intn(20) == 0 {
					size += 512
				}
				out = append(out, reg(datasets[i], first, 1+rng.Intn(tilesPerSet-first), size))
			}
			return out
		}
		type receipts struct {
			got   Receipt
			want  refReceipt
			reads []Region
		}
		var rcpts []receipts
		for op := 0; op < 400; op++ {
			dev := rng.Intn(devices)
			what := ""
			switch k := rng.Intn(12); {
			case k < 5:
				reads := regions()
				h, m, rc := tr.Commit(dev, reads)
				wh, wm, wrc := ref.commit(dev, reads)
				if h != wh || m != wm || rc.InstalledBytes() != wm {
					t.Fatalf("trial %d op %d: Commit = (%d, %d, installed %d), reference (%d, %d)", trial, op, h, m, rc.InstalledBytes(), wh, wm)
				}
				rcpts = append(rcpts, receipts{rc, wrc, reads})
				what = "commit"
			case k < 6:
				reads := regions()
				h, m := tr.Lookup(dev, reads)
				wh, wm := ref.lookup(dev, reads)
				if h != wh || m != wm {
					t.Fatalf("trial %d op %d: Lookup = (%d, %d), reference (%d, %d)", trial, op, h, m, wh, wm)
				}
				what = "lookup"
			case k < 7:
				writes := regions()
				resident := rng.Intn(2) == 0
				tr.Invalidate(dev, writes, resident)
				ref.invalidate(dev, writes, resident)
				what = "invalidate"
			case k < 8 && len(rcpts) > 0:
				rc := rcpts[rng.Intn(len(rcpts))]
				before := tr.Stats().RolledBackBytes
				tr.Rollback(rc.got)
				if got, want := tr.Stats().RolledBackBytes-before, ref.rollback(rc.want, nil); got != want {
					t.Fatalf("trial %d op %d: Rollback removed %d bytes, reference %d", trial, op, got, want)
				}
				what = "rollback"
			case k < 9 && len(rcpts) > 0:
				// The remainder's share: a suffix of one read region, or
				// regions unrelated to the receipt.
				rc := rcpts[rng.Intn(len(rcpts))]
				scope := regions()
				if rng.Intn(3) > 0 {
					g := rc.reads[rng.Intn(len(rc.reads))]
					skip := rng.Intn(g.Tiles)
					g.First += skip
					g.Tiles -= skip
					scope = []Region{g}
				}
				if got, want := tr.RollbackRegions(rc.got, scope), ref.rollback(rc.want, scope); got != want {
					t.Fatalf("trial %d op %d: RollbackRegions removed %d bytes, reference %d", trial, op, got, want)
				}
				what = "rollback-regions"
			default:
				if got, want := tr.Enforce(dev), ref.enforce(dev); got != want {
					t.Fatalf("trial %d op %d: Enforce evicted %d bytes, reference %d", trial, op, got, want)
				}
				what = "enforce"
			}
			for d := range devices {
				if got, want := tr.ResidentBytes(d), ref.used[d]; got != want {
					t.Fatalf("trial %d op %d (%s): device %d holds %d bytes, reference %d", trial, op, what, d, got, want)
				}
				for _, ds := range datasets {
					for tile := range tilesPerSet {
						probe := []Region{reg(ds, tile, 1, 1)}
						h, _ := tr.Lookup(d, probe)
						wh, _ := ref.lookup(d, probe)
						if h != wh {
							t.Fatalf("trial %d op %d (%s): device %d tile %s[%d] resident %v, reference %v", trial, op, what, d, ds, tile, h > 0, wh > 0)
						}
					}
				}
			}
			if got, want := tr.Stats(), ref.stats; got != want {
				t.Fatalf("trial %d op %d (%s): stats\n%+v\nreference\n%+v", trial, op, what, got, want)
			}
		}
		if st := tr.Stats(); capacity > 0 && (st.Evictions == 0 || st.RolledBackBytes == 0 || st.Invalidations == 0) {
			t.Fatalf("trial %d exercised too little: %s", trial, fmt.Sprintf("%+v", st))
		}
	}
}
