package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// EvalFunc measures one (P, T) configuration and returns its execution
// time in seconds (lower is better). The tuner treats errors as fatal:
// an unevaluable point means the space was constructed wrongly.
type EvalFunc func(partitions, tiles int) (seconds float64, err error)

// SearchSpace is the cross product of candidate partition counts and
// candidate tile counts. Tiles may depend on P (the paper's T = m·P
// rule), hence the generator form.
type SearchSpace struct {
	// Partitions lists candidate resource granularities.
	Partitions []int
	// TilesFor returns the candidate task granularities for a given
	// partition count.
	TilesFor func(p int) []int
}

// ExhaustiveSpace searches every combination in [1,maxP] × [1,maxT].
// Its size is what the paper calls the "huge search space".
func ExhaustiveSpace(maxP, maxT int) SearchSpace {
	return SearchSpace{
		Partitions: FullPartitionSpace(maxP),
		TilesFor:   func(int) []int { return FullTileSpace(maxT) },
	}
}

// HeuristicSpace applies the paper's §V-C pruning rules: P restricted
// to divisors of the usable core count, T restricted to multiples of P.
func HeuristicSpace(usableCores, maxT int) SearchSpace {
	var parts []int
	for p := 2; p <= usableCores; p++ {
		if usableCores%p == 0 {
			parts = append(parts, p)
		}
	}
	return SearchSpace{
		Partitions: parts,
		TilesFor:   func(p int) []int { return CandidateTiles(p, maxT) },
	}
}

// Size reports the number of (P, T) points in the space.
func (s SearchSpace) Size() int {
	n := 0
	for _, p := range s.Partitions {
		n += len(s.TilesFor(p))
	}
	return n
}

// TuneResult is the outcome of a search.
type TuneResult struct {
	// Partitions and Tiles are the best configuration found.
	Partitions int
	Tiles      int
	// Seconds is the best configuration's measured time.
	Seconds float64
	// Evaluations counts measured points (the search cost the
	// paper's heuristics exist to reduce).
	Evaluations int
}

// TuneCoordinateDescent searches the space one axis at a time instead
// of exhaustively: it fixes a representative tile count per partition
// candidate to pick the best P, then sweeps T at that P, optionally
// iterating until the choice stabilizes. Cost is O(|P| + |T|) per round
// instead of O(|P| × |T|) — the "further reduce the search space"
// direction the paper sketches in §V-C. On unimodal-ish landscapes
// (every application in the paper) it finds the exhaustive optimum or
// lands within a few percent; the tests quantify this on the MM
// landscape.
func TuneCoordinateDescent(space SearchSpace, eval EvalFunc, rounds int) (TuneResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	if space.Size() == 0 {
		return TuneResult{}, errEmptySpace
	}
	res := TuneResult{Seconds: math.Inf(1)}
	cache := map[point]float64{}
	measure := func(p, t int) (float64, error) {
		pt := point{1, p, t}
		if v, ok := cache[pt]; ok {
			return v, nil
		}
		v, err := eval(p, t)
		if err != nil {
			return 0, fmt.Errorf("core: evaluating %v: %w", pt, err)
		}
		res.Evaluations++
		cache[pt] = v
		return v, nil
	}
	// Representative tile for a partition count: the middle pruned
	// candidate, so each P is judged under a plausible T.
	repTile := func(p int) int {
		ts := space.TilesFor(p)
		if len(ts) == 0 {
			return p
		}
		return ts[len(ts)/2]
	}

	bestP, bestT := space.Partitions[0], repTile(space.Partitions[0])
	for round := 0; round < rounds; round++ {
		prevP, prevT := bestP, bestT
		// Axis 1: partitions, tiles fixed.
		bestSec := math.Inf(1)
		for _, p := range space.Partitions {
			t := bestT
			if round == 0 {
				t = repTile(p)
			}
			sec, err := measure(p, t)
			if err != nil {
				return TuneResult{}, err
			}
			if sec < bestSec {
				bestSec, bestP = sec, p
			}
		}
		// Axis 2: tiles, partitions fixed.
		bestSec = math.Inf(1)
		for _, t := range space.TilesFor(bestP) {
			sec, err := measure(bestP, t)
			if err != nil {
				return TuneResult{}, err
			}
			if sec < bestSec {
				bestSec, bestT = sec, t
			}
		}
		res.Partitions, res.Tiles, res.Seconds = bestP, bestT, bestSec
		if bestP == prevP && bestT == prevT {
			break
		}
	}
	if math.IsInf(res.Seconds, 1) {
		return TuneResult{}, errNoFiniteTime(res.Evaluations)
	}
	return res, nil
}

// ClusterEvalFunc measures one (devices, partitions, tiles)
// configuration — partitions and tiles are per device — and returns
// its execution time in seconds (lower is better).
type ClusterEvalFunc func(devices, partitions, tiles int) (seconds float64, err error)

// ClusterTuneResult is the outcome of a joint device-count and
// granularity search.
type ClusterTuneResult struct {
	// Devices, Partitions and Tiles are the best configuration found
	// (partitions and tiles per device).
	Devices, Partitions, Tiles int
	// Seconds is the best configuration's measured time.
	Seconds float64
	// Evaluations counts measured points.
	Evaluations int
}

// Tune evaluates every point of the space and returns the fastest. It
// is TuneCluster on one device.
func Tune(space SearchSpace, eval EvalFunc) (TuneResult, error) {
	r, err := TuneCluster(oneDevice, space, onOneDevice(eval))
	return r.single(), err
}

// TuneGuided prunes the search with a cheap predictor: every point of
// the space is scored with predict (an analytic model — microseconds
// per point), the topK best-predicted candidates are measured with
// eval, and the best measurement wins. Evaluations counts only eval
// calls, so the search cost drops from |space| to topK simulations.
// It is TuneClusterGuided on one device, so prediction ties break by
// (partitions, tiles). The model needs to rank well, not predict
// exactly: the true optimum merely has to land in the top k.
func TuneGuided(space SearchSpace, predict, eval EvalFunc, topK int) (TuneResult, error) {
	r, err := TuneClusterGuided(oneDevice, space, onOneDevice(predict), onOneDevice(eval), topK)
	return r.single(), err
}

// TuneCluster searches device count and per-device granularity
// jointly: every d in devices crossed with every (P, T) point of the
// space. This is the multi-MIC extension of Tune — the paper's §VI
// fixes the device count by hand; here the tuner discovers whether the
// second (or fourth) device pays for its staging traffic.
func TuneCluster(devices []int, space SearchSpace, eval ClusterEvalFunc) (ClusterTuneResult, error) {
	pts, err := points(devices, space)
	if err != nil {
		return ClusterTuneResult{}, err
	}
	return fastest(pts, eval)
}

// TuneClusterGuided prunes the joint search with a cheap predictor:
// every (devices, partitions, tiles) point is scored with predict, the
// topK best-predicted candidates are measured with eval, and the best
// measurement wins — TuneGuided lifted to the multi-device space.
// Prediction ties break by (devices, partitions, tiles) so the
// candidate set is deterministic.
func TuneClusterGuided(devices []int, space SearchSpace, predict, eval ClusterEvalFunc, topK int) (ClusterTuneResult, error) {
	pts, err := points(devices, space)
	if err != nil {
		return ClusterTuneResult{}, err
	}
	type scored struct {
		point
		sec float64
	}
	cands := make([]scored, len(pts))
	for i, pt := range pts {
		sec, err := predict(pt.d, pt.p, pt.t)
		if err != nil {
			return ClusterTuneResult{}, fmt.Errorf("core: predicting %v: %w", pt, err)
		}
		cands[i] = scored{pt, sec}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.sec != b.sec {
			return a.sec < b.sec
		}
		if a.d != b.d {
			return a.d < b.d
		}
		if a.p != b.p {
			return a.p < b.p
		}
		return a.t < b.t
	})
	topK = max(1, min(topK, len(cands)))
	for i := range pts[:topK] {
		pts[i] = cands[i].point
	}
	return fastest(pts[:topK], eval)
}

// point is one configuration of a search: D devices, each with P
// partitions and T tiles.
type point struct{ d, p, t int }

func (pt point) String() string { return fmt.Sprintf("D=%d P=%d T=%d", pt.d, pt.p, pt.t) }

// oneDevice is the device axis of the single-device tuners.
var oneDevice = []int{1}

// onOneDevice adapts a single-device function to the (D, P, T) search.
func onOneDevice(f EvalFunc) ClusterEvalFunc {
	return func(_, p, t int) (float64, error) { return f(p, t) }
}

// single narrows a one-device search result to the single-device form.
func (r ClusterTuneResult) single() TuneResult {
	return TuneResult{Partitions: r.Partitions, Tiles: r.Tiles, Seconds: r.Seconds, Evaluations: r.Evaluations}
}

// errEmptySpace reports a search space with no points.
var errEmptySpace = errors.New("core: empty search space")

// errNoFiniteTime reports a search whose every measurement was +Inf or
// NaN, so that no point can be called fastest.
func errNoFiniteTime(evaluations int) error {
	return fmt.Errorf("core: none of the %d evaluated points had a finite time", evaluations)
}

// points lists devices × space in search order: D, then P, then T,
// each in the order given. Both searches keep the first strictly
// fastest point they measure, so this order settles ties.
func points(devices []int, space SearchSpace) ([]point, error) {
	var pts []point
	for _, d := range devices {
		if d < 1 {
			return nil, fmt.Errorf("core: device count %d must be positive", d)
		}
		for _, p := range space.Partitions {
			for _, t := range space.TilesFor(p) {
				pts = append(pts, point{d, p, t})
			}
		}
	}
	if len(pts) == 0 {
		return nil, errEmptySpace
	}
	return pts, nil
}

// fastest measures pts in order and keeps the first strictly fastest.
func fastest(pts []point, eval ClusterEvalFunc) (ClusterTuneResult, error) {
	best := ClusterTuneResult{Seconds: math.Inf(1)}
	for _, pt := range pts {
		sec, err := eval(pt.d, pt.p, pt.t)
		if err != nil {
			return ClusterTuneResult{}, fmt.Errorf("core: evaluating %v: %w", pt, err)
		}
		best.Evaluations++
		if sec < best.Seconds {
			best.Devices, best.Partitions, best.Tiles, best.Seconds = pt.d, pt.p, pt.t, sec
		}
	}
	if math.IsInf(best.Seconds, 1) {
		return ClusterTuneResult{}, errNoFiniteTime(best.Evaluations)
	}
	return best, nil
}
