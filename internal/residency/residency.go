// Package residency tracks which tiles of which datasets are resident
// in each device's memory across cluster jobs — the bookkeeping that
// turns the Fig. 11 staging charge into a cold-miss-only cost.
//
// The paper's §VI loses to linear scaling because every off-origin job
// stages its whole input through the host; the authors' companion
// streaming work and the CPU+MIC CFD scaling study both attribute
// their multi-device wins to keeping partitioned data resident across
// kernel invocations. This package supplies the missing ledger: a
// deterministic per-device cache of (dataset, tile) regions already
// shipped to a device. The cluster consults it before charging
// staging — resident bytes are free, only the cold-miss remainder
// moves on the link — and the affinity placement policy reads it to
// break near-ties toward the device already holding a job's tiles.
//
// The tracker is a model, not a memory manager: it never owns real
// backing store, it only answers "would this transfer be redundant?".
// Every operation is a pure function of the call sequence, so cluster
// runs stay bit-identical across repeats (DESIGN.md §6, §11):
//
//   - Lookup is read-only — pricing probes (placement scoring, steal
//     gain estimates) cannot perturb the cache state, no matter how
//     many devices a policy scores.
//   - Commit installs a job's read tiles at its commitment instant and
//     stamps them with a logical clock tick; the returned Receipt lets
//     a steal's withdraw roll the install back (the staged transfer
//     never ran).
//   - Writes invalidate every other device's copy at the writer's
//     completion instant (the drain instant — before that, readers
//     legitimately price the old copy).
//   - Capacity is enforced per device at drain instants: least
//     recently used tiles evict first, ties on the use tick break by
//     insertion sequence, so eviction order never depends on map
//     iteration order.
package residency

import (
	"cmp"
	"fmt"
	"slices"
)

// Region declares one (dataset, tile-range) a job reads or writes:
// Tiles tiles of TileBytes each, starting at tile First of the named
// dataset. Regions are the cache's unit of declaration; tiles are its
// unit of residency, so two jobs reading overlapping ranges of one
// dataset share whatever tiles they have in common.
type Region struct {
	// Dataset names the logical allocation the tiles belong to.
	Dataset string
	// First is the index of the region's first tile within the
	// dataset.
	First int
	// Tiles is how many consecutive tiles the region covers.
	Tiles int
	// TileBytes is the size of each tile. Declarations for one
	// dataset must agree on it: Validate rejects disagreement within
	// one job's list, and agreement across jobs is the caller's
	// contract — a job declaring a different tile size than an
	// earlier resident declaration has its hits credited (and the
	// entries resized) at its own TileBytes, degrading the byte
	// accounting.
	TileBytes int64
}

// Bytes is the region's total volume.
func (r Region) Bytes() int64 { return int64(r.Tiles) * r.TileBytes }

// String renders the region for errors and logs.
func (r Region) String() string {
	return fmt.Sprintf("%s[%d:%d)×%dB", r.Dataset, r.First, r.First+r.Tiles, r.TileBytes)
}

// TotalBytes sums the regions' volumes — the staging demand a job
// declares through its read set.
func TotalBytes(regions []Region) int64 {
	var n int64
	for _, r := range regions {
		n += r.Bytes()
	}
	return n
}

// Validate checks one job's region list: every region well-formed
// (named dataset, non-negative start, at least one tile of at least
// one byte), no tile covered twice within the list (a self-overlap
// would double-count the job's demand), and every region of one
// dataset agreeing on TileBytes (mixed sizes would make the hit/miss
// byte split meaningless).
func Validate(regions []Region) error {
	seen := make(map[tileKey]struct{})
	sizes := make(map[string]int64)
	for i, r := range regions {
		switch {
		case r.Dataset == "":
			return fmt.Errorf("residency: region %d has no dataset name", i)
		case r.First < 0:
			return fmt.Errorf("residency: region %d (%s) has negative first tile", i, r)
		case r.Tiles < 1:
			return fmt.Errorf("residency: region %d (%s) covers no tiles", i, r)
		case r.TileBytes < 1:
			return fmt.Errorf("residency: region %d (%s) has non-positive tile size", i, r)
		}
		if prev, ok := sizes[r.Dataset]; ok && prev != r.TileBytes {
			return fmt.Errorf("residency: region %d (%s) declares %d-byte tiles where an earlier region of %q declared %d", i, r, r.TileBytes, r.Dataset, prev)
		}
		sizes[r.Dataset] = r.TileBytes
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			k := tileKey{dataset: r.Dataset, tile: tile}
			if _, dup := seen[k]; dup {
				return fmt.Errorf("residency: region %d (%s) overlaps tile %d of %q declared earlier in the list", i, r, tile, r.Dataset)
			}
			seen[k] = struct{}{}
		}
	}
	return nil
}

// tileKey identifies one resident tile.
type tileKey struct {
	dataset string
	tile    int
}

// entry is one resident tile on one device.
type entry struct {
	bytes int64
	// used is the logical clock tick of the last commit that touched
	// the tile — the LRU recency signal.
	used uint64
	// seq is the tile's global insertion sequence number; it breaks
	// LRU ties deterministically (tiles installed by one commit share
	// a tick but never a sequence number).
	seq uint64
}

// victim is one eviction candidate of Enforce.
type victim struct {
	key tileKey
	entry
}

// deviceCache is one device's resident set.
type deviceCache struct {
	entries map[tileKey]entry
	used    int64
}

// Stats are the tracker's cumulative counters. They span the
// tracker's lifetime (across cluster runs — a warm second run shows
// up as hits here); per-run accounting lives in the cluster's Result.
type Stats struct {
	// Lookups and Commits count the respective calls.
	Lookups, Commits int
	// HitBytes and MissBytes split the demand Commit saw: bytes
	// already resident on the commitment device versus bytes that had
	// to stage. They sum to the total committed demand.
	HitBytes, MissBytes int64
	// EvictedBytes is the volume LRU eviction dropped at drain
	// instants; Evictions counts dropped tiles.
	EvictedBytes int64
	Evictions    int
	// InvalidatedBytes is the volume writes invalidated on devices
	// other than the writer's; Invalidations counts dropped tiles.
	InvalidatedBytes int64
	Invalidations    int
	// RolledBackBytes is the volume withdrawn commits removed again
	// (a stolen job's staged transfer never ran).
	RolledBackBytes int64
}

// Receipt records what one Commit installed, so a withdraw can roll
// the installation back. The zero Receipt rolls back nothing.
type Receipt struct {
	dev       int
	tick      uint64
	installed []tileKey
	bytes     int64
}

// InstalledBytes is the volume the commit newly installed (its miss
// share).
func (r Receipt) InstalledBytes() int64 { return r.bytes }

// Tracker is the per-device tile-residency cache. It is not safe for
// concurrent use; the cluster drives it from single-threaded engine
// callbacks.
type Tracker struct {
	devs     []deviceCache
	capacity int64
	clock    uint64
	seq      uint64
	stats    Stats
	// victims is Enforce's candidate scratch.
	victims []victim
}

// New builds a tracker for the given device count with a per-device
// byte capacity; capacity 0 means unbounded.
func New(devices int, capacityBytes int64) (*Tracker, error) {
	if devices < 1 {
		return nil, fmt.Errorf("residency: device count %d must be positive", devices)
	}
	if capacityBytes < 0 {
		return nil, fmt.Errorf("residency: negative capacity %d bytes", capacityBytes)
	}
	t := &Tracker{devs: make([]deviceCache, devices), capacity: capacityBytes}
	for d := range t.devs {
		t.devs[d].entries = make(map[tileKey]entry)
	}
	return t, nil
}

// Devices reports the tracked device count.
func (t *Tracker) Devices() int { return len(t.devs) }

// Capacity reports the per-device byte capacity (0 = unbounded).
func (t *Tracker) Capacity() int64 { return t.capacity }

// Stats returns the cumulative counters.
func (t *Tracker) Stats() Stats { return t.stats }

// ResidentBytes reports how many bytes device dev currently holds.
func (t *Tracker) ResidentBytes(dev int) int64 { return t.cache(dev).used }

// Reset drops every resident tile and zeroes the counters — a cold
// tracker, as if freshly built.
func (t *Tracker) Reset() {
	for d := range t.devs {
		t.devs[d] = deviceCache{entries: make(map[tileKey]entry)}
	}
	t.clock, t.seq = 0, 0
	t.stats = Stats{}
}

func (t *Tracker) cache(dev int) *deviceCache {
	if dev < 0 || dev >= len(t.devs) {
		panic(fmt.Sprintf("residency: device %d out of range [0,%d)", dev, len(t.devs)))
	}
	return &t.devs[dev]
}

// Lookup splits the regions' demand into the bytes already resident
// on dev and the cold-miss remainder. It is read-only: pricing probes
// never perturb recency, so scoring many devices is side-effect-free.
// Regions must not self-overlap (see Validate); the split then
// satisfies hit+miss == TotalBytes(regions).
func (t *Tracker) Lookup(dev int, regions []Region) (hit, miss int64) {
	dc := t.cache(dev)
	t.stats.Lookups++
	for _, r := range regions {
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			if _, ok := dc.entries[tileKey{dataset: r.Dataset, tile: tile}]; ok {
				hit += r.TileBytes
			} else {
				miss += r.TileBytes
			}
		}
	}
	return hit, miss
}

// Commit binds a job's read set to device dev at its commitment
// instant: resident tiles refresh their recency (the hit share),
// missing tiles install (the miss share — the bytes the job's staging
// transfer actually ships). The returned Receipt identifies the
// installed tiles so a later withdraw can roll them back. The split
// equals what Lookup reported immediately before on the same device.
func (t *Tracker) Commit(dev int, reads []Region) (hit, miss int64, rcpt Receipt) {
	dc := t.cache(dev)
	t.stats.Commits++
	t.clock++
	rcpt = Receipt{dev: dev, tick: t.clock}
	for _, r := range reads {
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			k := tileKey{dataset: r.Dataset, tile: tile}
			if e, ok := dc.entries[k]; ok {
				hit += r.TileBytes
				dc.used += r.TileBytes - e.bytes
				e.bytes = r.TileBytes
				e.used = t.clock
				dc.entries[k] = e
				continue
			}
			miss += r.TileBytes
			t.seq++
			dc.entries[k] = entry{bytes: r.TileBytes, used: t.clock, seq: t.seq}
			dc.used += r.TileBytes
			rcpt.installed = append(rcpt.installed, k)
			rcpt.bytes += r.TileBytes
		}
	}
	t.stats.HitBytes += hit
	t.stats.MissBytes += miss
	return hit, miss, rcpt
}

// Rollback undoes a Commit's installations after the committed job
// was withdrawn (stolen) before dispatch: its staging transfer never
// ran, so the tiles it would have shipped are not resident. Tiles a
// later commit has touched since stay — another job refreshed them,
// and its own staging decision already treated them as resident.
func (t *Tracker) Rollback(rcpt Receipt) {
	if len(rcpt.installed) == 0 {
		return
	}
	dc := t.cache(rcpt.dev)
	for _, k := range rcpt.installed {
		e, ok := dc.entries[k]
		if !ok || e.used != rcpt.tick {
			continue
		}
		delete(dc.entries, k)
		dc.used -= e.bytes
		t.stats.RolledBackBytes += e.bytes
	}
}

// RollbackRegions is the partial, region-scoped form of Rollback the
// cluster's mid-job migration uses (DESIGN.md §13): when a partially-
// run job's undispatched remainder leaves a device, only the tiles the
// remainder still needed leave with it — the receipt's other installs
// (tiles the completed slices already consumed) stay resident, because
// their transfer really ran and later jobs may hit them. The same
// recency guard as Rollback applies: tiles a later commit touched
// since stay. Returns the removed volume.
func (t *Tracker) RollbackRegions(rcpt Receipt, regions []Region) int64 {
	if len(rcpt.installed) == 0 || len(regions) == 0 {
		return 0
	}
	want := make(map[tileKey]struct{})
	for _, r := range regions {
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			want[tileKey{dataset: r.Dataset, tile: tile}] = struct{}{}
		}
	}
	dc := t.cache(rcpt.dev)
	var removed int64
	for _, k := range rcpt.installed {
		if _, scoped := want[k]; !scoped {
			continue
		}
		e, ok := dc.entries[k]
		if !ok || e.used != rcpt.tick {
			continue
		}
		delete(dc.entries, k)
		dc.used -= e.bytes
		t.stats.RolledBackBytes += e.bytes
		removed += e.bytes
	}
	return removed
}

// Invalidate applies a job's write set at its completion instant (the
// drain instant): every other device's copy of the written tiles is
// dropped — it now holds stale data. When resident is true (the
// writer ran off the dataset's origin, so the fresh bytes live in its
// cache, not the origin's memory) the written tiles install or
// refresh on dev; otherwise dev's own staged copies drop too, because
// the write landed in origin memory and even the writer's cache is
// stale.
func (t *Tracker) Invalidate(dev int, writes []Region, resident bool) {
	if len(writes) == 0 {
		return
	}
	t.clock++
	for d := range t.devs {
		if d == dev && resident {
			continue
		}
		dc := &t.devs[d]
		for _, r := range writes {
			for tile := r.First; tile < r.First+r.Tiles; tile++ {
				k := tileKey{dataset: r.Dataset, tile: tile}
				if e, ok := dc.entries[k]; ok {
					delete(dc.entries, k)
					dc.used -= e.bytes
					t.stats.InvalidatedBytes += e.bytes
					t.stats.Invalidations++
				}
			}
		}
	}
	if !resident {
		return
	}
	dc := t.cache(dev)
	for _, r := range writes {
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			k := tileKey{dataset: r.Dataset, tile: tile}
			if e, ok := dc.entries[k]; ok {
				dc.used += r.TileBytes - e.bytes
				e.bytes = r.TileBytes
				e.used = t.clock
				dc.entries[k] = e
				continue
			}
			t.seq++
			dc.entries[k] = entry{bytes: r.TileBytes, used: t.clock, seq: t.seq}
			dc.used += r.TileBytes
		}
	}
}

// Enforce evicts least-recently-used tiles from device dev until it
// fits the capacity, returning the evicted volume. The cluster calls
// it at drain instants only — between them a device may transiently
// exceed capacity, mirroring how a real runtime frees staged tiles
// when a kernel completes, not mid-enqueue. Eviction order is total:
// oldest use tick first, ties by insertion sequence, so it never
// depends on map iteration order.
func (t *Tracker) Enforce(dev int) int64 {
	dc := t.cache(dev)
	if t.capacity <= 0 || dc.used <= t.capacity {
		return 0
	}
	// Collect and order the candidates once, in the tracker's reused
	// scratch; evict from the front until under capacity.
	victims := t.victims[:0]
	for k, e := range dc.entries {
		victims = append(victims, victim{key: k, entry: e})
	}
	slices.SortFunc(victims, func(a, b victim) int {
		if c := cmp.Compare(a.used, b.used); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	t.victims = victims
	var evicted int64
	for _, v := range victims {
		if dc.used <= t.capacity {
			break
		}
		delete(dc.entries, v.key)
		dc.used -= v.bytes
		evicted += v.bytes
		t.stats.EvictedBytes += v.bytes
		t.stats.Evictions++
	}
	return evicted
}
