package cluster

import (
	"micstream/internal/sched"
	"micstream/internal/sim"
)

// Outcome records one completed cluster job.
type Outcome struct {
	// Index is the job's position in the Run slice.
	Index int
	// ID and Tenant echo the job's labels.
	ID     int
	Tenant string
	// Device is where the job ran; Stream is the context-wide stream
	// id within it.
	Device, Stream int
	// Arrival, Placed, Start and Done are the lifecycle instants:
	// cluster admission, device commitment, stream dispatch, and
	// completion of the last action. Placed equals Arrival unless the
	// job waited in the cluster queue for admission capacity.
	Arrival, Placed, Start, Done sim.Time
	// Est is the service estimate excluding staging.
	Est sim.Duration
	// Deadline echoes the job's relative latency budget (0: none);
	// Missed reports the completed job overran it (Latency > Deadline).
	Deadline sim.Duration
	Missed   bool
	// Staged reports whether the job ran off its origin device and
	// paid the host-staging transfer; StagedBytes is the charged
	// volume and StagingEst that transfer's modeled link occupancy.
	// After a steal these reflect the final device.
	Staged      bool
	StagedBytes int64
	StagingEst  sim.Duration
	// HitBytes and MissBytes split an off-origin job's staging demand
	// at its final commitment: bytes found resident on the device
	// (free — the residency cache held them) versus bytes actually
	// staged (the cold-miss remainder StagedBytes charges, before the
	// staging factor). They sum to the job's StagingDemand. Without
	// WithResidency every demanded byte is a miss.
	HitBytes, MissBytes int64
	// Origin echoes the device holding the job's inputs (-1:
	// host-resident), so final placement is auditable per job.
	Origin int
	// Stolen reports the job was withdrawn from a device at a drain
	// instant and re-bound; StolenFrom is the most recent victim (-1
	// when never stolen) and StolenAt the latest re-binding instant.
	// Without WithSlicing a stolen job dispatches immediately on the
	// thief, so it is stolen at most once and Device names where it
	// ran; with slicing a job may additionally migrate mid-job (see
	// Migrations). Placed stays the first commitment instant.
	Stolen     bool
	StolenFrom int
	StolenAt   sim.Time
	// Slices counts the stream grants the job took across every device
	// it ran on: 1 for a whole-job dispatch, more under WithSlicing.
	// Zero means the job never reached a stream.
	Slices int
	// Migrations is the job's mid-job migration history, in order: at
	// each entry the undispatched remainder — tasks [NextTask:] of the
	// original list — left From for To at the drain instant At
	// (DESIGN.md §13). Empty for unstolen and pre-dispatch-stolen jobs.
	Migrations []Migration
	// Failed marks a job the run admitted but could never place or
	// run because a scheduling error aborted the run; its lifecycle
	// fields past Arrival are meaningless.
	Failed bool
}

// Migration records one mid-job re-binding of a partially-run job's
// undispatched remainder (WithSlicing + WithStealing).
type Migration struct {
	// From and To are the victim and thief devices.
	From, To int
	// At is the migration instant (a drain instant).
	At sim.Time
	// NextTask indexes the first task of the migrated remainder in the
	// job's original task list.
	NextTask int
}

// Wait is the total queueing delay (dispatch minus arrival).
func (o Outcome) Wait() sim.Duration { return o.Start.Sub(o.Arrival) }

// PlaceWait is the cluster-level share of the wait: how long the job
// sat unplaced because every device was saturated.
func (o Outcome) PlaceWait() sim.Duration { return o.Placed.Sub(o.Arrival) }

// Latency is the response time (completion minus arrival).
func (o Outcome) Latency() sim.Duration { return o.Done.Sub(o.Arrival) }

// Service is the stream occupancy (completion minus dispatch),
// including any staging transfer.
func (o Outcome) Service() sim.Duration { return o.Done.Sub(o.Start) }

// DeviceStats aggregates the jobs of one device.
type DeviceStats struct {
	// Device is the device index.
	Device int
	// Jobs is the completed-job count.
	Jobs int
	// Staged counts the jobs that paid a host-staging transfer.
	Staged int
	// Busy is the summed stream occupancy of the device's jobs.
	Busy sim.Duration
	// Utilization is Busy over the run's total stream-time
	// (makespan × streams): 1 means the device never idled.
	Utilization float64
	// KernelBusy and LinkBusy are this run's partition-server and
	// DMA-server occupancy (sim.Server accounting, deltas against Run
	// entry — the servers accumulate across runs). Unlike Busy, which
	// counts whole-job stream occupancy including queueing inside the
	// device, these measure the hardware models themselves.
	KernelBusy, LinkBusy sim.Duration
	// KernelUtilization is KernelBusy over makespan × partitions;
	// LinkUtilization is LinkBusy over the makespan. 1 means the
	// resource never idled during the run.
	KernelUtilization, LinkUtilization float64
}

// Result summarizes one cluster Run.
type Result struct {
	// Placement names the placement policy that routed the jobs.
	Placement string
	// Jobs lists every outcome in submission order. It is nil for a
	// session with an outcome sink: each outcome left through the sink,
	// and the aggregates below still cover every job.
	Jobs []Outcome
	// Devices lists per-device aggregates in device order.
	Devices []DeviceStats
	// Tenants lists per-tenant aggregates sorted by tenant label
	// (the same accounting sched.Result carries).
	Tenants []sched.TenantStats
	// Makespan is the span from the run's start to the last
	// completion.
	Makespan sim.Duration
	// Flops is the summed kernel work of every job's tasks; GFlops
	// is Flops over the makespan (0 when no costs were declared).
	Flops  float64
	GFlops float64
	// StagedJobs and StagedBytes total the cross-device staging the
	// placement caused — the Fig. 11 shortfall, measured.
	StagedJobs  int
	StagedBytes int64
	// HitBytes and MissBytes total the residency cache's per-job
	// splits: demand served from resident tiles versus demand staged
	// cold (hits + misses == the off-origin jobs' total staging
	// demand). Without WithResidency, HitBytes is 0 and MissBytes is
	// the full demand. EvictedBytes is the volume LRU eviction dropped
	// at this run's drain instants (always 0 cache-less).
	HitBytes, MissBytes, EvictedBytes int64
	// DeadlineMisses counts completed jobs that overran their declared
	// relative deadline (always 0 when no job carries one).
	DeadlineMisses int
	// Steals counts drain-instant re-bindings of committed,
	// not-yet-dispatched jobs (0 unless the cluster runs WithStealing).
	// Preempts counts mid-job migrations — a dispatched job's
	// undispatched remainder re-binding at a slice boundary (0 unless
	// WithSlicing and WithStealing are both enabled).
	Steals   int
	Preempts int
	// Failed counts jobs the run admitted but never ran because a
	// scheduling error aborted it (Run also returns the error).
	Failed int
}

// Device returns the aggregate for one device, or nil.
func (r *Result) Device(d int) *DeviceStats {
	for i := range r.Devices {
		if r.Devices[i].Device == d {
			return &r.Devices[i]
		}
	}
	return nil
}

// Tenant returns the aggregate for one tenant, or nil.
func (r *Result) Tenant(name string) *sched.TenantStats {
	for i := range r.Tenants {
		if r.Tenants[i].Tenant == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

// jobFold accumulates outcomes into a Result's per-job aggregates.
// Every Result folds its outcomes in index order, so each sum,
// floating-point ones included, is the same however the outcomes are
// split between folds: a session with a sink folds outcomes as their
// storage retires (retireNotified), and summarize continues a copy over
// the outcomes still kept.
type jobFold struct {
	end                              sim.Time
	devs                             []DeviceStats // Jobs, Staged and Busy
	tenants                          sched.TenantTally
	failed, misses, stagedJobs       int
	stagedBytes, hitBytes, missBytes int64
}

// add folds one outcome; f.devs must hold every device.
func (f *jobFold) add(o *Outcome) {
	if o.Failed {
		f.failed++
		return
	}
	if o.Done > f.end {
		f.end = o.Done
	}
	if o.Missed {
		f.misses++
	}
	ds := &f.devs[o.Device]
	ds.Jobs++
	ds.Busy += o.Service()
	if o.Staged {
		ds.Staged++
		f.stagedJobs++
		f.stagedBytes += o.StagedBytes
	}
	f.hitBytes += o.HitBytes
	f.missBytes += o.MissBytes
	f.tenants.Add(o.Tenant, o.Latency(), o.Service(), o.Missed)
}

// clone copies the fold with its device slice sized to n devices.
func (f *jobFold) clone(n int) jobFold {
	g := *f
	g.devs = make([]DeviceStats, n)
	copy(g.devs, f.devs)
	g.tenants = f.tenants.Clone()
	return g
}

// summarize assembles the Result: the retired outcomes' fold plus the
// outcomes still kept, in index order.
func (c *Cluster) summarize() *Result {
	r := &Result{Placement: c.place.Name()}
	f := c.retired.clone(len(c.scheds))
	if c.retireOutcomes {
		for i := c.folded; i < c.outcomes.Len(); i++ {
			f.add(c.outcomes.At(i))
		}
	} else {
		r.Jobs = c.outcomes.Slice()
		for i := range r.Jobs {
			f.add(&r.Jobs[i])
		}
	}
	devs := f.devs
	for d := range devs {
		devs[d].Device = d
	}
	r.Failed, r.DeadlineMisses = f.failed, f.misses
	r.StagedJobs, r.StagedBytes = f.stagedJobs, f.stagedBytes
	r.HitBytes, r.MissBytes = f.hitBytes, f.missBytes
	if c.resident != nil {
		r.EvictedBytes = c.resident.Stats().EvictedBytes - c.resStart.EvictedBytes
	}
	r.Steals = c.steals
	r.Preempts = c.preempts
	r.Makespan = max(f.end, c.runStart).Sub(c.runStart)
	r.Tenants = f.tenants.Stats(r.Makespan)
	parts := c.ctx.Config().Partitions
	for d := range devs {
		devs[d].KernelBusy = c.kernelBusy(d) - c.kernBusy0[d]
		devs[d].LinkBusy = c.ctx.Link(d).TotalBusy() - c.linkBusy0[d]
		streams := c.scheds[d].NumStreams()
		if r.Makespan > 0 && streams > 0 {
			devs[d].Utilization = devs[d].Busy.Seconds() / (r.Makespan.Seconds() * float64(streams))
		}
		if r.Makespan > 0 {
			devs[d].LinkUtilization = devs[d].LinkBusy.Seconds() / r.Makespan.Seconds()
			if parts > 0 {
				devs[d].KernelUtilization = devs[d].KernelBusy.Seconds() / (r.Makespan.Seconds() * float64(parts))
			}
		}
	}
	r.Devices = devs
	r.Flops = c.runFlops
	if r.Makespan > 0 && r.Flops > 0 {
		r.GFlops = r.Flops / r.Makespan.Seconds() / 1e9
	}
	return r
}
