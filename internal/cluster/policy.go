package cluster

import (
	"fmt"
	"sort"

	"micstream/internal/model"
	"micstream/internal/sim"
)

// DeviceView is one device's snapshot at a placement instant. The
// cluster hands a policy its views in scratch it reuses for every
// decision: they are copies, refreshed before each Place, so a policy
// may overwrite them harmlessly but must not keep them past the call.
type DeviceView struct {
	// Device is the device index.
	Device int
	// Streams is the device's stream count.
	Streams int
	// Idle is how many of those streams have no job in flight.
	Idle int
	// Queued is the committed-but-undispatched job count — the
	// queue-depth signal least-loaded placement uses.
	Queued int
	// Backlog is the summed service estimates of the queued jobs —
	// the time-denominated signal predicted placement uses instead.
	Backlog sim.Duration
	// EarliestFree is the device scheduler's estimate of its next
	// stream-drain instant (Now when a stream is already idle).
	EarliestFree sim.Time
	// Now is the current virtual time.
	Now sim.Time
}

// occupancy counts jobs the device holds, running plus queued.
func (v DeviceView) occupancy() int { return v.Streams - v.Idle + v.Queued }

// Policy chooses, at each placement opportunity, which device the
// oldest cluster-queued job commits to. eligible is non-empty, sorted
// by ascending device index, and contains only devices with spare
// admission capacity; it is cluster-owned scratch, valid only during
// the Place call (DeviceView). Place returns an index into eligible, or
// a negative value to defer the job to the next decision instant (only
// meaningful for pinning policies — deferral forfeits cluster-level
// work conservation). Implementations may keep per-run state and must
// be deterministic functions of their inputs and that state.
type Policy interface {
	// Name identifies the policy in results and CLIs.
	Name() string
	// Place returns an index into eligible, or negative to defer.
	Place(q *Queued, eligible []DeviceView) int
}

// Scorer is optionally implemented by placement policies whose
// decision reduces to a comparable per-device score. Scores returns
// the scores the policy's last Place call computed — the predicted
// completion instant of the job on each device, parallel to that
// call's eligible list. The telemetry layer copies them into the Place
// event, so recording the scores behind a decision prices nothing a
// second time and cannot perturb the decision. The returned slice may
// be the policy's scratch, valid until its next Place call.
type Scorer interface {
	Scores() []sim.Time
}

// clusterBinder is implemented by policies that derive state from the
// cluster (the platform model, the device count); New and Run call it
// before the first placement.
type clusterBinder interface{ bind(*Cluster) }

// resetter is implemented by stateful policies; Run calls it so every
// run starts from the same policy state.
type resetter interface{ reset() }

// leastLoaded routes to the device holding the fewest jobs (running
// plus queued) — the classic queue-depth heuristic, blind to job sizes
// and staging. Ties go to the lowest device index.
type leastLoaded struct{}

// LeastLoaded returns the queue-depth placement policy.
func LeastLoaded() Policy { return leastLoaded{} }

// Name implements Policy.
func (leastLoaded) Name() string { return "least-loaded" }

// Place implements Policy.
func (leastLoaded) Place(_ *Queued, eligible []DeviceView) int {
	best := 0
	for i, v := range eligible[1:] {
		if v.occupancy() < eligible[best].occupancy() {
			best = i + 1
		}
	}
	return best
}

// roundRobin rotates placement across devices with a persistent
// cursor, ignoring load entirely.
type roundRobin struct {
	devices int
	cursor  int
}

// RoundRobin returns the rotating placement policy. The cursor is
// per-run state: Run resets it.
func RoundRobin() Policy { return &roundRobin{} }

// Name implements Policy.
func (*roundRobin) Name() string { return "round-robin" }

// bind implements clusterBinder.
func (p *roundRobin) bind(c *Cluster) { p.devices = c.NumDevices() }

// reset implements resetter.
func (p *roundRobin) reset() { p.cursor = 0 }

// Place implements Policy: the eligible device nearest at or after the
// cursor on the device ring.
func (p *roundRobin) Place(_ *Queued, eligible []DeviceView) int {
	n := p.devices
	if n < 1 {
		n = len(eligible)
	}
	best, bestDist := 0, n+1
	for i, v := range eligible {
		d := (v.Device - p.cursor + n) % n
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	p.cursor = (eligible[best].Device + 1) % n
	return best
}

// predicted is the model-driven policy: each eligible device is scored
// with its predicted completion instant for the job — the device's
// estimated ready time (drain instant plus queued backlog spread over
// its streams), plus the cross-device staging term when the job would
// run off its data's origin, plus the model's service prediction — and
// the earliest predicted completion wins. The service and staging
// terms go through the analytic model, so a Fit-calibrated model
// (PredictedWithModel) really moves the scores: TransferScale
// stretches the staging price, ComputeScale the kernel share. This is
// the predicted-performance-driven configuration of arXiv:2003.04294
// applied to placement: unlike least-loaded it sees *time*, so a long
// job behind a short queue loses to a short queue of long jobs, and
// unlike every load-blind heuristic it knows that moving a job off its
// origin costs the Fig. 11 staging traffic.
type predicted struct {
	c          *Cluster
	m          *model.Model
	partitions int

	// scores and residuals are Place's per-decision scratch, sliced to
	// the last Place's eligible list.
	scores    []sim.Time
	residuals []int64
}

// Predicted returns the model-driven placement policy. The
// performance model is built from the platform's device and link
// configs when the cluster binds the policy.
func Predicted() Policy { return &predicted{} }

// PredictedWithModel returns the predicted policy with a
// caller-supplied (e.g. Fit-calibrated) performance model.
func PredictedWithModel(m *model.Model) Policy { return &predicted{m: m} }

// Name implements Policy.
func (*predicted) Name() string { return "predicted" }

// bind implements clusterBinder.
func (p *predicted) bind(c *Cluster) {
	p.c = c
	cfg := c.Context().Config()
	p.partitions = cfg.Partitions
	if p.m == nil {
		p.m = model.New(cfg.Device, cfg.Link)
		p.m.StreamsPerPartition = cfg.StreamsPerPartition
	}
}

// serviceEst is the service term of a score: a caller-declared
// estimate wins (it is what the backlog term is denominated in);
// otherwise the model predicts the service from the tasks, which is
// where Fit calibration enters.
func (p *predicted) serviceEst(q *Queued) sim.Duration {
	if q.Job.Est <= 0 {
		return p.m.ServiceTime(q.Job.Tasks, p.partitions)
	}
	return q.Est
}

// residual is the staging demand left if q commits to dev now: zero on
// the job's origin, the cold-miss remainder where the residency cache
// holds part of the read set, the full demand otherwise. Lookup is
// read-only, so scoring many devices never perturbs the cache.
func (p *predicted) residual(q *Queued, dev int) int64 {
	job := q.Job
	if job.Origin < 0 || job.Origin == dev || q.demand <= 0 {
		return 0
	}
	if t := p.c.resident; t != nil && len(job.Reads) > 0 {
		_, miss := t.Lookup(dev, job.Reads)
		return miss
	}
	return q.demand
}

// score is the predicted completion instant of q on v: the device's
// estimated ready time (drain instant plus queued backlog spread over
// its streams), the residual staging charge priced through the
// model's staging-only cluster form, and the service estimate.
func (p *predicted) score(q *Queued, v DeviceView, est sim.Duration, residual int64) sim.Time {
	ready := v.EarliestFree
	if ready < v.Now {
		ready = v.Now
	}
	if v.Streams > 0 {
		ready = ready.Add(v.Backlog / sim.Duration(v.Streams))
	}
	s := ready.Add(est)
	if residual > 0 {
		s = s.Add(p.c.stagingPrice(p.m, residual))
	}
	return s
}

// Scores implements Scorer: the predicted completion instant per
// eligible device that the last Place minimized.
func (p *predicted) Scores() []sim.Time { return p.scores }

// scoreAll fills scores and residuals, parallel to eligible, and
// returns the index of the earliest predicted completion (the lowest
// index among ties).
func (p *predicted) scoreAll(q *Queued, eligible []DeviceView, scores []sim.Time, residuals []int64) int {
	est := p.serviceEst(q)
	best := 0
	for i, v := range eligible {
		residuals[i] = p.residual(q, v.Device)
		scores[i] = p.score(q, v, est, residuals[i])
		if scores[i] < scores[best] {
			best = i
		}
	}
	return best
}

// scratch returns Place's score and residual buffers sized for n
// devices, reused across decisions.
func (p *predicted) scratch(n int) ([]sim.Time, []int64) {
	if cap(p.scores) < n {
		p.scores = make([]sim.Time, n)
		p.residuals = make([]int64, n)
	}
	p.scores, p.residuals = p.scores[:n], p.residuals[:n]
	return p.scores, p.residuals
}

// Place implements Policy.
func (p *predicted) Place(q *Queued, eligible []DeviceView) int {
	scores, residuals := p.scratch(len(eligible))
	return p.scoreAll(q, eligible, scores, residuals)
}

// DefaultAffinitySlack is the affinity policy's near-tie window: a
// device qualifies as tied when its predicted completion span exceeds
// the best by at most this fraction.
const DefaultAffinitySlack = 0.05

// affinity is the cache-aware refinement of predicted: devices are
// scored identically, but when several land within the near-tie window
// the job goes to the one already holding the largest resident
// fraction of its read set (the origin counts as fully resident).
// Staging is priced at the residual in both policies; what affinity
// adds is the tie-break — on a repeated-dataset mix it herds readers
// of one dataset onto the device that staged it first instead of
// scattering them by backlog noise, so the cold miss is paid once
// (DESIGN.md §11). Without WithResidency (or for jobs without
// declared regions) it degenerates to predicted exactly.
type affinity struct {
	predicted
	slack float64
}

// Affinity returns the cache-affinity placement policy with the
// default near-tie window.
func Affinity() Policy { return &affinity{slack: DefaultAffinitySlack} }

// Name implements Policy.
func (*affinity) Name() string { return "affinity" }

// Place implements Policy.
func (a *affinity) Place(q *Queued, eligible []DeviceView) int {
	scores, residuals := a.scratch(len(eligible))
	best := a.scoreAll(q, eligible, scores, residuals)
	// The tie-break needs the cache's information: without a tracker,
	// without declared regions (residual carries no residency signal
	// then), or without demand, affinity is predicted exactly.
	job := q.Job
	if a.c.resident == nil || job.Origin < 0 || q.demand <= 0 || len(job.Reads) == 0 {
		return best
	}
	// Spans are measured from now so the near-tie window is relative
	// to how far away completion is, not to the virtual epoch.
	now := eligible[0].Now
	bestSpan := scores[best].Sub(now)
	window := bestSpan + sim.Duration(float64(bestSpan)*a.slack)
	pick, pickFrac := best, -1.0
	for i := range eligible {
		if scores[i].Sub(now) > window {
			continue
		}
		frac := float64(q.demand-residuals[i]) / float64(q.demand)
		// Largest resident fraction wins; ties keep the earlier
		// predicted completion, then the lower device index (first
		// seen) — the same discipline as every other decision.
		if frac > pickFrac || (frac == pickFrac && scores[i] < scores[pick]) {
			pick, pickFrac = i, frac
		}
	}
	return pick
}

// static pins every job to one device, deferring while it is
// saturated. It exists as the baseline the placement property tests
// compare against (the best static single-device assignment); it is
// not work-conserving at the cluster level and is not registered with
// ByName.
type static struct{ dev int }

// Static returns a policy that places every job on the given device.
func Static(dev int) Policy { return static{dev: dev} }

// Name implements Policy.
func (s static) Name() string { return fmt.Sprintf("static-%d", s.dev) }

// Place implements Policy.
func (s static) Place(_ *Queued, eligible []DeviceView) int {
	for i, v := range eligible {
		if v.Device == s.dev {
			return i
		}
	}
	return -1
}

// Policies lists the built-in placement policy names in stable order.
func Policies() []string {
	names := make([]string, 0, len(policyFactories))
	for name := range policyFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// policyFactories maps names to fresh-instance constructors; RR,
// predicted and affinity are stateful, so ByName must return a new
// value each call.
var policyFactories = map[string]func() Policy{
	"least-loaded": LeastLoaded,
	"round-robin":  RoundRobin,
	"predicted":    Predicted,
	"affinity":     Affinity,
}

// ByName returns a fresh instance of a built-in placement policy:
// "affinity", "least-loaded", "round-robin", or "predicted".
func ByName(name string) (Policy, error) {
	f, ok := policyFactories[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown placement policy %q (have %v)", name, Policies())
	}
	return f(), nil
}
