package hstreams

import (
	"math"
	"testing"

	"micstream/internal/device"
)

// TestMemoisedPriceIsExact holds every kernel a stream enqueues to the
// invocation Partition.Price gives its cost, bit for bit, whether the
// stream's price memo answered or the closed form ran: for repeated
// and alternating costs, costs that differ only in Name, a cost with a
// NaN field, which never equals itself and so is priced every time, a
// -0 field against a +0 one, and a cost the memo has evicted. Each
// partition count starts from a Context.Reset of the same context, so
// the pooled partitions change shape under the streams' old partition
// pointers, and a price memoised before the reset must not answer
// after it.
func TestMemoisedPriceIsExact(t *testing.T) {
	base := device.KernelCost{
		Name: "k", Flops: 3e8, Bytes: 2e7, SerialNs: 4_000, AllocBytesPerThread: 4096,
		WorkingSetBytes: 1 << 20, CacheSensitive: true, FitBonus: 0.3, Efficiency: 0.4, ScalingPenalty: 0.1,
	}
	other := base
	other.Flops = 5e8
	renamed := base
	renamed.Name = "k2"
	nan := base
	nan.Bytes = math.NaN()
	zero := base
	zero.FitBonus = 0
	negZero := base
	negZero.FitBonus = math.Copysign(0, -1)

	steps := []struct {
		name   string
		cost   device.KernelCost
		misses int // the stream's closed-form evaluations after the step
	}{
		{"first", base, 1},
		{"repeat", base, 1},
		{"repeat", base, 1},
		{"alternate", other, 2},
		{"alternate", base, 2},
		{"alternate", other, 2},
		{"name only", renamed, 3},
		{"name only", base, 3},
		{"name only", renamed, 3},
		{"NaN", nan, 4},
		{"NaN again", nan, 5},
		{"+0", zero, 6},
		{"-0 matches +0", negZero, 6},
		{"evicted", base, 7},
	}
	ctx, err := Init(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The largest shape comes first, so every later one reuses the
	// context's stream slice, and each ends with base in its memos.
	var prev device.Invocation // base on stream 0 at the previous P
	for _, p := range []int{56, 1, 3, 2, 7} {
		if err := ctx.Reset(Config{Partitions: p, StreamsPerPartition: 2}); err != nil {
			t.Fatal(err)
		}
		for si := range ctx.NumStreams() {
			s := ctx.Stream(si)
			for i, st := range steps {
				ev := s.EnqueueKernel(st.cost, i, nil)
				want := s.Partition().Price(&st.cost)
				if ev.inv != want {
					t.Fatalf("P=%d stream %d step %d (%s): invocation %+v, Price %+v", p, si, i, st.name, ev.inv, want)
				}
				if s.misses != st.misses {
					t.Fatalf("P=%d stream %d step %d (%s): %d closed-form evaluations, want %d", p, si, i, st.name, s.misses, st.misses)
				}
			}
		}
		inv := ctx.Stream(0).Partition().Price(&base)
		if inv == prev {
			t.Fatalf("P=%d prices base as the previous P does, so its reset proves nothing", p)
		}
		prev = inv
		ctx.Drain()
	}
}
