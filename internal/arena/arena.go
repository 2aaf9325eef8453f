// Package arena is the service path's per-job storage (DESIGN.md §15):
// an indexed slab whose elements never move as it grows, contiguous
// runs carved from shared chunks, and a FIFO queue that reuses one
// buffer. Each replaces a pattern that allocated once per job: a
// per-job heap object, a slice regrown (and re-copied) by append, and
// a queue whose head was dropped by re-slicing.
package arena

// ChunkLen is the element count of every chunk a Slab or Runs adds
// once its first, exactly sized storage is used up.
const ChunkLen = 1 << chunkShift

const (
	chunkShift = 8
	chunkMask  = ChunkLen - 1
)

// Slab is append-only indexed storage whose elements never move, so a
// pointer from At stays valid until the element is retired. The first
// Grow sizes one head slice exactly; later elements go in
// ChunkLen-sized chunks, so a slab filled by a single Grow is one
// slice of exactly its length (Slice aliases it) and growing never
// copies an element. Retire drops storage from the front: indices stay
// stable, and the dropped chunks come back zeroed to later Grows. The
// zero value is empty and ready to use.
type Slab[T any] struct {
	head []T
	tail [][]T
	// base is the index of tail[0][0]: the head's length until
	// Retire drops chunks, then moved forward a chunk at a time.
	base int
	n    int
	// spare holds retired chunks, cleared, for Grow to reuse.
	spare [][]T
}

// Grow appends n zero elements and returns the index of the first.
func (s *Slab[T]) Grow(n int) (base int) {
	base = s.n
	if n <= 0 {
		return base
	}
	if s.n == 0 {
		s.head = make([]T, n)
		s.base, s.n = n, n
		return base
	}
	s.n += n
	for s.base+len(s.tail)*ChunkLen < s.n {
		var c []T
		if k := len(s.spare) - 1; k >= 0 {
			c, s.spare[k] = s.spare[k], nil
			s.spare = s.spare[:k]
		} else {
			c = make([]T, ChunkLen)
		}
		s.tail = append(s.tail, c)
	}
	return base
}

// Len reports the number of elements, retired ones included.
func (s *Slab[T]) Len() int { return s.n }

// At returns a pointer to element i, which must be below Len and not
// retired.
func (s *Slab[T]) At(i int) *T {
	if i < len(s.head) {
		return &s.head[i]
	}
	i -= s.base
	return &s.tail[i>>chunkShift][i&chunkMask]
}

// Retire gives up the storage of every element below i (at most Len):
// the head once i reaches its end, and each chunk that lies wholly
// below i. Elements at or above i keep their indices and addresses,
// and an i below an earlier Retire's retires nothing more. The dropped
// chunks are cleared, so they keep nothing they reference alive, and
// kept for Grow to reuse instead of allocating.
func (s *Slab[T]) Retire(i int) {
	if s.head != nil {
		if i < len(s.head) {
			return
		}
		s.head = nil
	}
	k := max(i-s.base, 0) >> chunkShift
	if k == 0 {
		return
	}
	for _, c := range s.tail[:k] {
		clear(c)
		s.spare = append(s.spare, c)
	}
	m := copy(s.tail, s.tail[k:])
	clear(s.tail[m:])
	s.tail = s.tail[:m]
	s.base += k * ChunkLen
}

// Retires reports whether Retire(i) would give up any storage: whether
// i reaches the end of the head, while it is kept, or of the first
// chunk.
func (s *Slab[T]) Retires(i int) bool {
	if s.head != nil {
		return i >= len(s.head)
	}
	return i-s.base >= ChunkLen
}

// Chunks reports how many slices hold elements not yet retired: the
// head, while it is kept, and every chunk.
func (s *Slab[T]) Chunks() int {
	if s.head != nil {
		return 1 + len(s.tail)
	}
	return len(s.tail)
}

// Slice returns the elements as one slice: the head itself while no
// chunk has been added (writes through it reach the slab), otherwise
// a fresh copy. It is nil for an empty slab. A retired slab has no
// such slice: Slice panics once Retire has given up any element.
func (s *Slab[T]) Slice() []T {
	if s.head == nil && s.n > 0 {
		panic("arena: Slice of a retired slab")
	}
	if s.n == len(s.head) {
		return s.head
	}
	out := make([]T, s.n)
	k := copy(out, s.head)
	for _, c := range s.tail {
		k += copy(out[k:], c)
	}
	return out
}

// Runs hands out contiguous runs of storage carved from ChunkLen-sized
// chunks (a longer run gets a chunk of its own). Nothing is ever
// handed out twice, so a run stays valid for as long as its holder
// keeps it. The zero value is ready to use.
type Runs[T any] struct {
	free []T
}

// Take returns a zeroed run of n elements whose capacity is n, so an
// append to it cannot reach a neighbouring run.
func (r *Runs[T]) Take(n int) []T {
	if len(r.free) < n {
		r.free = make([]T, max(n, ChunkLen))
	}
	run := r.free[:n:n]
	r.free = r.free[n:]
	return run
}

// Queue is a FIFO queue over one buffer that it reuses: popping
// advances a head index, an emptied queue restarts at the front of its
// buffer, and a full buffer whose front half is popped is compacted
// instead of regrown. A queue whose reader keeps up therefore never
// allocates. The zero value is empty and ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Items returns the queued elements, oldest first. The slice aliases
// the queue's buffer and is valid until the next Push or Pop.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop drops the n oldest elements, clearing their slots so the buffer
// keeps nothing they reference alive.
func (q *Queue[T]) Pop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
