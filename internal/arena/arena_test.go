package arena

import (
	"reflect"
	"testing"
)

// Elements keep their addresses however the slab grows, a slab filled
// by one Grow is exactly one slice, and Slice reads the elements in
// index order either way.
func TestSlabNeverMovesAnElement(t *testing.T) {
	var s Slab[int]
	if s.Slice() != nil || s.Grow(0) != 0 || s.Len() != 0 {
		t.Fatal("an empty slab is not empty")
	}
	if base := s.Grow(3); base != 0 {
		t.Fatalf("first Grow base %d, want 0", base)
	}
	if got := s.Slice(); len(got) != 3 || cap(got) != 3 {
		t.Fatalf("one Grow gave len %d cap %d, want exactly 3", len(got), cap(got))
	}
	var ptrs []*int
	want := []int{}
	for i := 0; i < 3*ChunkLen; i += 7 {
		base := s.Grow(7)
		if base != i+3 {
			t.Fatalf("Grow base %d, want %d", base, i+3)
		}
	}
	for i := 0; i < s.Len(); i++ {
		*s.At(i) = i
		ptrs = append(ptrs, s.At(i))
		want = append(want, i)
	}
	s.Grow(5 * ChunkLen)
	for i, p := range ptrs {
		if p != s.At(i) || *p != i {
			t.Fatalf("element %d moved or changed", i)
		}
	}
	got := s.Slice()[:len(want)]
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Slice lost the index order")
	}
}

// Runs are contiguous, capped at their length and never overlap.
func TestRunsAreDisjoint(t *testing.T) {
	var r Runs[int]
	a := r.Take(3)
	b := r.Take(ChunkLen + 1)
	c := r.Take(2)
	for _, run := range [][]int{a, b, c} {
		if cap(run) != len(run) {
			t.Fatalf("run len %d cap %d", len(run), cap(run))
		}
		for i := range run {
			run[i] = len(run)
		}
	}
	for _, run := range [][]int{a, b, c} {
		for _, v := range run {
			if v != len(run) {
				t.Fatal("runs overlap")
			}
		}
	}
}

// The queue hands elements out in push order across every mix of
// pushes, single pops and bulk pops, and a reader that keeps up
// causes no allocation.
func TestQueueOrderAndReuse(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for k := 0; k < round%9; k++ {
			q.Push(next)
			next++
		}
		n := min(q.Len(), round%5)
		for i, v := range q.Items()[:n] {
			if v != want+i {
				t.Fatalf("round %d: popped %d, want %d", round, v, want+i)
			}
		}
		q.Pop(n)
		want += n
	}
	for i, v := range q.Items() {
		if v != want+i {
			t.Fatalf("tail %d, want %d", v, want+i)
		}
	}
	q.Pop(q.Len())
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 8; k++ {
			q.Push(k)
		}
		q.Pop(3)
		q.Pop(q.Len())
	})
	if allocs != 0 {
		t.Fatalf("a drained queue allocated %.1f objects per refill", allocs)
	}
}

// A full buffer whose front half is popped is compacted in place, not
// regrown, and keeps its order.
func TestQueueCompactsInPlace(t *testing.T) {
	var q Queue[int]
	for i := 0; len(q.buf) < 8 || len(q.buf) < cap(q.buf); i++ {
		q.Push(i)
	}
	full := cap(q.buf)
	q.Pop(full / 2)
	q.Push(full)
	if cap(q.buf) != full {
		t.Fatalf("buffer regrown from %d to %d instead of compacted", full, cap(q.buf))
	}
	for i, v := range q.Items() {
		if v != full/2+i {
			t.Fatalf("after compaction item %d is %d, want %d", i, v, full/2+i)
		}
	}
}

// Retiring keeps every live index and address, drops the head and the
// whole chunks below the retired index, and hands the dropped chunks
// back zeroed to later Grows instead of allocating. Retires names the
// first index at which a Retire gives up storage.
func TestSlabRetire(t *testing.T) {
	var s Slab[int]
	s.Grow(3)
	s.Grow(2*ChunkLen + 5)
	for i := 0; i < s.Len(); i++ {
		*s.At(i) = i + 1
	}
	if got := s.Chunks(); got != 4 {
		t.Fatalf("head and 3 chunks held in %d slices", got)
	}
	if s.Retires(2) || !s.Retires(3) {
		t.Fatal("Retires does not name the head's end as the first storage to give up")
	}
	s.Retire(2)
	if s.Chunks() != 4 || s.head == nil {
		t.Fatal("Retire inside the head dropped storage")
	}
	live := 3 + ChunkLen + 1
	ptr := s.At(live)
	if !s.Retires(live) {
		t.Fatalf("Retires(%d) is false before a Retire that drops the head and a chunk", live)
	}
	s.Retire(live)
	if s.Retires(live) || s.Retires(3+2*ChunkLen-1) || !s.Retires(3+2*ChunkLen) {
		t.Fatal("Retires does not name the first kept chunk's end")
	}
	if s.head != nil || s.Chunks() != 2 {
		t.Fatalf("Retire(%d) left head %v and %d slices, want no head and 2 chunks", live, s.head != nil, s.Chunks())
	}
	if s.At(live) != ptr {
		t.Fatal("a live element moved")
	}
	for i := live - 1; i < s.Len(); i++ {
		if *s.At(i) != i+1 {
			t.Fatalf("element %d reads %d after Retire", i, *s.At(i))
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		s.Retire(s.Len())
		if s.Chunks() != 1 {
			t.Fatalf("Retire(Len) kept %d slices, want the partial last chunk", s.Chunks())
		}
		for i := s.Grow(ChunkLen); i < s.Len(); i++ {
			if *s.At(i) != 0 {
				t.Fatalf("reused chunk holds %d at %d", *s.At(i), i)
			}
			*s.At(i) = -1
		}
	})
	if allocs != 0 {
		t.Fatalf("Grow after Retire allocated %.0f objects instead of reusing a chunk", allocs)
	}
}

// A slab never retired keeps its exact head: Slice aliases it.
func TestSlabUnretiredSliceAliasesHead(t *testing.T) {
	var s Slab[int]
	s.Grow(5)
	s.Retire(0)
	got := s.Slice()
	got[4] = 9
	if *s.At(4) != 9 || len(got) != 5 || cap(got) != 5 {
		t.Fatal("Slice of a never-retired slab is not its head")
	}
}

// Slice panics on a slab that has given up any element, where a copy
// would come back short (the head gone, chunks kept) or zero-filled
// (everything gone); a Retire inside the head gives up nothing.
func TestSlabSliceOfRetiredPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		grow   []int
		retire int
	}{
		{"head only", []int{3, ChunkLen}, 3},
		{"head and a chunk", []int{3, 2 * ChunkLen}, 3 + ChunkLen},
		{"everything", []int{5}, 5},
	} {
		var s Slab[int]
		for _, n := range tc.grow {
			s.Grow(n)
		}
		s.Retire(tc.retire)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Slice of a retired slab returned", tc.name)
				}
			}()
			s.Slice()
		}()
	}
	var s Slab[int]
	s.Grow(3)
	s.Grow(4)
	s.Retire(2)
	if got := s.Slice(); len(got) != 7 {
		t.Fatalf("Slice after a Retire inside the head has %d elements, want 7", len(got))
	}
}
