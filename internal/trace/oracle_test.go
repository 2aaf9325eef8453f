package trace

import (
	"slices"

	"micstream/internal/sim"
)

// spanAnalysis is the stage analysis computed by scanning a span log,
// as full recorders computed it before every recorder folded its spans
// into per-kind classes. It is the oracle both recorder kinds are held
// to.
type spanAnalysis []Span

// busy collects the non-empty spans of one kind and merges them.
func (a spanAnalysis) busy(kind Kind) []interval {
	var out []interval
	for _, s := range a {
		if s.Kind == kind && s.End > s.Start {
			out = append(out, interval{s.Start, s.End})
		}
	}
	return mergeIntervals(out)
}

func (a spanAnalysis) busyTime(kind Kind) sim.Duration { return length(a.busy(kind)) }

func (a spanAnalysis) totalTime(kind Kind) sim.Duration {
	var t sim.Duration
	for _, s := range a {
		if s.Kind == kind {
			t += s.Duration()
		}
	}
	return t
}

func (a spanAnalysis) overlap(x, y Kind) sim.Duration {
	return intersectionLength(a.busy(x), a.busy(y))
}

func (a spanAnalysis) stageTimes() StageTimes {
	h2d, d2h, exe := a.busy(H2D), a.busy(D2H), a.busy(Kernel)
	st := StageTimes{H2D: length(h2d), D2H: length(d2h), Kernel: length(exe)}
	xfer := mergeIntervals(slices.Concat(h2d, d2h))
	if total := length(xfer); total > 0 {
		st.TransferComputeOverlap = intersectionLength(xfer, exe).Seconds() / total.Seconds()
	}
	return st
}

func (a spanAnalysis) makespan() sim.Time {
	var end sim.Time
	for _, s := range a {
		end = max(end, s.End)
	}
	return end
}
