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

import "fmt"

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
		// Compare with the earlier regions of the same dataset: a list
		// holds a few regions, so the pairs cost less than a set of
		// every tile would.
		overlap := -1
		for _, p := range regions[:i] {
			if p.Dataset != r.Dataset {
				continue
			}
			if p.TileBytes != r.TileBytes {
				return fmt.Errorf("residency: region %d (%s) declares %d-byte tiles where an earlier region of %q declared %d", i, r, r.TileBytes, r.Dataset, p.TileBytes)
			}
			if p.First < r.First+r.Tiles && r.First < p.First+p.Tiles {
				if t := max(p.First, r.First); overlap < 0 || t < overlap {
					overlap = t
				}
			}
		}
		if overlap >= 0 {
			return fmt.Errorf("residency: region %d (%s) overlaps tile %d of %q declared earlier in the list", i, r, overlap, r.Dataset)
		}
	}
	return nil
}

// tileKey identifies one resident tile: its dataset's interned id and
// its index.
type tileKey struct {
	ds   int32
	tile int
}

// none is the null node index.
const none = -1

// node is one resident tile on one device, linked into the device's
// recency list.
type node struct {
	key   tileKey
	bytes int64
	// used is the logical clock tick of the last commit that touched
	// the tile — the LRU recency signal.
	used uint64
	// seq is the tile's global insertion sequence number; it breaks
	// LRU ties deterministically (tiles installed by one commit share
	// a tick but never a sequence number).
	seq        uint64
	prev, next int32
}

// deviceCache is one device's resident set: an index from tile to node
// and the nodes in a list ordered by (used, seq), least recent first.
type deviceCache struct {
	tiles      map[tileKey]int32
	head, tail int32
	used       int64
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
// the installation back: the commit's tick, the range of insertion
// sequence numbers its installs took, and the read set it covered.
// The zero Receipt rolls back nothing.
type Receipt struct {
	reads []Region
	tick  uint64
	// The commit's n installs took the sequence numbers after seq.
	seq   uint64
	bytes int64
	n     uint32
	dev   int32
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
	// ids interns dataset names; nodes holds every device's tiles,
	// free the vacant node indices.
	ids   map[string]int32
	nodes []node
	free  []int32
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
	t := &Tracker{devs: make([]deviceCache, devices), capacity: capacityBytes, ids: make(map[string]int32)}
	for d := range t.devs {
		t.devs[d] = deviceCache{tiles: make(map[tileKey]int32), head: none, tail: none}
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
		dc := &t.devs[d]
		clear(dc.tiles)
		dc.head, dc.tail, dc.used = none, none, 0
	}
	clear(t.ids)
	t.nodes, t.free = t.nodes[:0], t.free[:0]
	t.clock, t.seq = 0, 0
	t.stats = Stats{}
}

func (t *Tracker) cache(dev int) *deviceCache {
	if dev < 0 || dev >= len(t.devs) {
		panic(fmt.Sprintf("residency: device %d out of range [0,%d)", dev, len(t.devs)))
	}
	return &t.devs[dev]
}

// intern returns the dataset's id, assigning the next one to a name
// seen for the first time.
func (t *Tracker) intern(dataset string) int32 {
	id, ok := t.ids[dataset]
	if !ok {
		id = int32(len(t.ids))
		t.ids[dataset] = id
	}
	return id
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
		id, ok := t.ids[r.Dataset]
		if !ok {
			miss += r.Bytes()
			continue
		}
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			if _, ok := dc.tiles[tileKey{id, tile}]; ok {
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
// installed tiles so a later withdraw can roll them back; it keeps
// reads, which the caller must leave unchanged. The split equals what
// Lookup reported immediately before on the same device.
func (t *Tracker) Commit(dev int, reads []Region) (hit, miss int64, rcpt Receipt) {
	dc := t.cache(dev)
	t.stats.Commits++
	t.clock++
	rcpt = Receipt{reads: reads, tick: t.clock, seq: t.seq, dev: int32(dev)}
	fresh := t.newChain()
	for _, r := range reads {
		id := t.intern(r.Dataset)
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			if t.stamp(dc, tileKey{id, tile}, r.TileBytes, &fresh) {
				miss += r.TileBytes
			} else {
				hit += r.TileBytes
			}
		}
	}
	t.appendChain(dc, fresh)
	rcpt.n = uint32(t.seq - rcpt.seq)
	rcpt.bytes = miss
	t.stats.HitBytes += hit
	t.stats.MissBytes += miss
	return hit, miss, rcpt
}

// chain is a run of nodes linked by prev/next outside any device list:
// the tiles one commit installs, which take the sequence numbers after
// since.
type chain struct {
	head, tail int32
	since      uint64
}

// newChain starts an empty chain at the current sequence number.
func (t *Tracker) newChain() chain { return chain{head: none, tail: none, since: t.seq} }

// stamp touches tile k on dc at the current tick, as the tile's bytes,
// and reports whether it installed the tile. A resident tile moves to
// its new place in the recency list; a new one joins fresh, whose
// nodes all order after every node in the list (they carry the current
// tick and the newest sequence numbers), so the caller appends fresh
// once it has stamped every tile.
func (t *Tracker) stamp(dc *deviceCache, k tileKey, bytes int64, fresh *chain) (installed bool) {
	if i, ok := dc.tiles[k]; ok {
		n := &t.nodes[i]
		dc.used += bytes - n.bytes
		n.bytes = bytes
		if n.seq <= fresh.since {
			// Not one of this commit's own installs, which an
			// overlapping list can touch twice: those stay in fresh.
			n.used = t.clock
			t.unlink(dc, i)
			t.insertOrdered(dc, i)
		}
		return false
	}
	t.seq++
	i := t.newNode(node{key: k, bytes: bytes, used: t.clock, seq: t.seq, prev: fresh.tail, next: none})
	if fresh.tail == none {
		fresh.head = i
	} else {
		t.nodes[fresh.tail].next = i
	}
	fresh.tail = i
	dc.tiles[k] = i
	dc.used += bytes
	return true
}

// newNode stores n in a vacant node, or a new one, and returns its
// index.
func (t *Tracker) newNode(n node) int32 {
	if k := len(t.free); k > 0 {
		i := t.free[k-1]
		t.free = t.free[:k-1]
		t.nodes[i] = n
		return i
	}
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// unlink takes node i out of dc's list.
func (t *Tracker) unlink(dc *deviceCache, i int32) {
	n := &t.nodes[i]
	if n.prev == none {
		dc.head = n.next
	} else {
		t.nodes[n.prev].next = n.next
	}
	if n.next == none {
		dc.tail = n.prev
	} else {
		t.nodes[n.next].prev = n.prev
	}
}

// insertOrdered links node i into dc's list at its (used, seq) place,
// searching back from the tail: a node just stamped carries the
// newest tick, so it passes only the nodes of its own tick with a
// later sequence number.
func (t *Tracker) insertOrdered(dc *deviceCache, i int32) {
	n := &t.nodes[i]
	at := dc.tail
	for at != none {
		p := &t.nodes[at]
		if p.used < n.used || p.used == n.used && p.seq < n.seq {
			break
		}
		at = p.prev
	}
	n.prev = at
	if at == none {
		n.next = dc.head
		dc.head = i
	} else {
		n.next = t.nodes[at].next
		t.nodes[at].next = i
	}
	if n.next == none {
		dc.tail = i
	} else {
		t.nodes[n.next].prev = i
	}
}

// appendChain links a chain after dc's tail.
func (t *Tracker) appendChain(dc *deviceCache, c chain) {
	if c.head == none {
		return
	}
	t.nodes[c.head].prev = dc.tail
	if dc.tail == none {
		dc.head = c.head
	} else {
		t.nodes[dc.tail].next = c.head
	}
	dc.tail = c.tail
}

// remove drops node i from dc and returns its bytes.
func (t *Tracker) remove(dc *deviceCache, i int32) int64 {
	t.unlink(dc, i)
	n := &t.nodes[i]
	delete(dc.tiles, n.key)
	dc.used -= n.bytes
	t.free = append(t.free, i)
	return n.bytes
}

// Rollback undoes a Commit's installations after the committed job
// was withdrawn (stolen) before dispatch: its staging transfer never
// ran, so the tiles it would have shipped are not resident. Tiles a
// later commit has touched since stay — another job refreshed them,
// and its own staging decision already treated them as resident.
func (t *Tracker) Rollback(rcpt Receipt) {
	t.RollbackRegions(rcpt, rcpt.reads)
}

// RollbackRegions is the partial, region-scoped form of Rollback the
// cluster's mid-job migration uses (DESIGN.md §13): when a partially-
// run job's undispatched remainder leaves a device, only the tiles the
// remainder still needed leave with it — the receipt's other installs
// (tiles the completed slices already consumed) stay resident, because
// their transfer really ran and later jobs may hit them. The same
// recency guard as Rollback applies: tiles a later commit touched
// since stay. A tile is the receipt's install exactly when it still
// carries the commit's tick and a sequence number from the commit's
// range. Returns the removed volume.
func (t *Tracker) RollbackRegions(rcpt Receipt, regions []Region) int64 {
	if rcpt.n == 0 {
		return 0
	}
	dc := t.cache(int(rcpt.dev))
	var removed int64
	for _, r := range regions {
		id, ok := t.ids[r.Dataset]
		if !ok {
			continue
		}
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			i, ok := dc.tiles[tileKey{id, tile}]
			if !ok {
				continue
			}
			n := &t.nodes[i]
			if n.used != rcpt.tick || n.seq <= rcpt.seq || n.seq > rcpt.seq+uint64(rcpt.n) {
				continue
			}
			removed += t.remove(dc, i)
		}
	}
	t.stats.RolledBackBytes += removed
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
			id, ok := t.ids[r.Dataset]
			if !ok {
				continue
			}
			for tile := r.First; tile < r.First+r.Tiles; tile++ {
				if i, ok := dc.tiles[tileKey{id, tile}]; ok {
					t.stats.InvalidatedBytes += t.remove(dc, i)
					t.stats.Invalidations++
				}
			}
		}
	}
	if !resident {
		return
	}
	dc := t.cache(dev)
	fresh := t.newChain()
	for _, r := range writes {
		id := t.intern(r.Dataset)
		for tile := r.First; tile < r.First+r.Tiles; tile++ {
			t.stamp(dc, tileKey{id, tile}, r.TileBytes, &fresh)
		}
	}
	t.appendChain(dc, fresh)
}

// Enforce evicts least-recently-used tiles from device dev until it
// fits the capacity, returning the evicted volume. The cluster calls
// it at drain instants only — between them a device may transiently
// exceed capacity, mirroring how a real runtime frees staged tiles
// when a kernel completes, not mid-enqueue. Eviction order is total:
// oldest use tick first, ties by insertion sequence — the order the
// device's list keeps, so eviction takes tiles from its front.
func (t *Tracker) Enforce(dev int) int64 {
	dc := t.cache(dev)
	if t.capacity <= 0 {
		return 0
	}
	var evicted int64
	for dc.used > t.capacity {
		evicted += t.remove(dc, dc.head)
		t.stats.Evictions++
	}
	t.stats.EvictedBytes += evicted
	return evicted
}
