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
