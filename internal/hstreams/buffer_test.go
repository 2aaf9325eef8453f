package hstreams

import (
	"testing"

	"micstream/internal/device"
	"micstream/internal/sim"
)

func TestBufferAccessors(t *testing.T) {
	c := newCtx(t, Config{ExecuteKernels: true})
	host := []float32{1, 2, 3}
	b := Alloc1D(c, "vec", host)
	if b.Name() != "vec" {
		t.Fatalf("name = %q", b.Name())
	}
	if b.Len() != 3 || b.Bytes() != 12 {
		t.Fatalf("len=%d bytes=%d", b.Len(), b.Bytes())
	}
	hs := HostSlice[float32](b)
	if &hs[0] != &host[0] {
		t.Fatal("HostSlice does not alias the caller's slice")
	}
}

// Alloc follows the context's mode: the host slice itself when kernels
// execute, a virtual buffer of T's element size when they do not, and
// a panic for a functional host slice of the wrong length.
func TestAllocFollowsMode(t *testing.T) {
	host := []float32{1, 2, 3}
	fn := Alloc(newCtx(t, Config{ExecuteKernels: true}), "f", host, 3)
	if hs := HostSlice[float32](fn); &hs[0] != &host[0] {
		t.Fatal("a functional Alloc does not alias the host slice")
	}
	virt := Alloc[float32](newCtx(t, Config{}), "v", nil, 5)
	if virt.Len() != 5 || virt.Bytes() != 20 || virt.hostAny != nil {
		t.Fatalf("a timing-only Alloc gave %d elements, %d B, host %v", virt.Len(), virt.Bytes(), virt.hostAny)
	}
	defer func() {
		if recover() == nil {
			t.Error("a functional Alloc of a short host slice did not panic")
		}
	}()
	Alloc(newCtx(t, Config{ExecuteKernels: true}), "short", host, 4)
}

func TestHostSlicePanicsOnVirtualAndMismatch(t *testing.T) {
	c := newCtx(t, Config{})
	v := AllocVirtual(c, "v", 4, 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("HostSlice on virtual buffer did not panic")
			}
		}()
		HostSlice[float64](v)
	}()
	real := Alloc1D(c, "r", []int32{1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("HostSlice type mismatch did not panic")
			}
		}()
		HostSlice[float64](real)
	}()
}

func TestAllocVirtualRejectsBadShape(t *testing.T) {
	c := newCtx(t, Config{})
	for _, bad := range [][2]int{{-1, 4}, {4, 0}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AllocVirtual(%v) did not panic", bad)
				}
			}()
			AllocVirtual(c, "x", bad[0], bad[1])
		}()
	}
}

func TestBufferElementSizes(t *testing.T) {
	c := newCtx(t, Config{})
	cases := []struct {
		b    *Buffer
		want int64
	}{
		{Alloc1D(c, "f64", make([]float64, 2)), 16},
		{Alloc1D(c, "f32", make([]float32, 2)), 8},
		{Alloc1D(c, "i64", make([]int64, 2)), 16},
		{Alloc1D(c, "i32", make([]int32, 2)), 8},
		{Alloc1D(c, "i16", make([]int16, 2)), 4},
		{Alloc1D(c, "u16", make([]uint16, 2)), 4},
		{Alloc1D(c, "u8", make([]uint8, 2)), 2},
		{Alloc1D(c, "i8", make([]int8, 2)), 2},
		{Alloc1D(c, "b", make([]bool, 2)), 2},
		{Alloc1D(c, "int", make([]int, 2)), 16},
		{Alloc1D(c, "uint", make([]uint, 2)), 16},
		{Alloc1D(c, "u32", make([]uint32, 2)), 8},
		{Alloc1D(c, "u64", make([]uint64, 2)), 16},
		{Alloc1D(c, "c64", make([]complex64, 2)), 16},
	}
	for _, tc := range cases {
		if tc.b.Bytes() != tc.want {
			t.Errorf("%s: bytes = %d, want %d", tc.b.Name(), tc.b.Bytes(), tc.want)
		}
	}
}

func TestUnsupportedElementTypePanics(t *testing.T) {
	c := newCtx(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("struct element type accepted")
		}
	}()
	type weird struct{ a, b float64 }
	Alloc1D(c, "w", make([]weird, 1))
}

func TestContextAccessors(t *testing.T) {
	c := newCtx(t, Config{Partitions: 2})
	if c.Engine() == nil {
		t.Fatal("nil engine")
	}
	if c.Link(0) == nil {
		t.Fatal("nil link")
	}
	s := c.Stream(1)
	if s.Partition() == nil || s.Partition().Index() != 1 {
		t.Fatal("stream/partition wiring broken")
	}
	// Drain runs everything to quiescence.
	s.EnqueueKernel(device.KernelCost{Flops: 1e6}, 0, nil)
	end := c.Drain()
	if end <= 0 {
		t.Fatalf("drain ended at %v", end)
	}
	if c.Engine().Pending() != 0 {
		t.Fatal("events left after drain")
	}
}

func TestStreamSyncBlocksOnlyThatStream(t *testing.T) {
	c := newCtx(t, Config{Partitions: 2})
	slow := device.KernelCost{Name: "slow", Flops: 5e9}
	fast := device.KernelCost{Name: "fast", Flops: 1e6}
	c.Stream(0).EnqueueKernel(slow, 0, nil)
	evFast := c.Stream(1).EnqueueKernel(fast, 1, nil)
	c.Stream(1).Sync()
	if !evFast.Done() {
		t.Fatal("Sync did not complete the fast stream")
	}
	// The slow stream may still be running: host time equals the
	// fast completion, not the slow one.
	if c.Now() != evFast.CompletedAt() {
		t.Fatalf("host at %v, want %v (fast stream's completion)", c.Now(), evFast.CompletedAt())
	}
	if sim.Duration(c.Now()) >= c.Device(0).Partition(0).KernelTime(slow) {
		t.Fatal("stream sync appears to have waited for the slow stream too")
	}
}
