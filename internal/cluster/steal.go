package cluster

import (
	"micstream/internal/sched"
	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// Work stealing re-binds committed-but-undispatched jobs at drain
// instants (DESIGN.md §10). Placement commits a job to a device when it
// is admitted; under an imbalanced mix one device can drain while
// another still holds a deep committed queue — the Fig. 11 shape where
// multi-MIC scaling is lost. With WithStealing enabled, every drain
// instant runs a steal pass: an idle device scans the deepest-backlog
// device for a queued job whose predicted completion improves by
// moving, re-charges the Fig. 11 staging term against the new link
// (and un-charges the old one — the withdrawn job never started its
// staged transfer), withdraws it and re-routes it.
//
// With WithSlicing also enabled, the candidate set extends to
// *dispatched* jobs: a partially-run job's undispatched remainder,
// re-queued at a slice boundary, is in the victim's pending queue like
// any never-started job and may migrate mid-job (DESIGN.md §13). A
// remainder's move is priced at its *remaining* service plus the
// staging residual for only the tiles its remaining tasks still need;
// on migration the victim keeps the tiles the completed slices
// consumed (their transfer really ran) while the remainder's unused
// tiles roll back region-scoped, and the migration is logged as a
// Preempt event and counted in Result.Preempts.
//
// Determinism: steal passes run only at drain instants (job-completion
// events), scan thieves in ascending device order, pick the strictly
// deepest victim backlog (ties keep the lowest device index), and pick
// the strictly largest predicted gain (ties keep the earliest queued
// job) — the same tie-break discipline as the rest of the scheduler,
// so runs stay bit-identical across repeats (DESIGN.md §6).

// trySteals runs steal passes until no idle device can improve any
// committed job by re-binding it. Under the work-conserving built-in
// policies a non-empty cluster queue implies no idle stream anywhere,
// so no thief exists and the pass is a cheap no-op; under a deferring
// (pinning) policy idle devices and a backed-up queue can coexist,
// and stealing deliberately overrides the pin — enabling WithStealing
// opts the cluster into re-binding. Each successful pass re-runs the
// dispatch loop: a withdraw frees committed capacity the cluster
// queue may late-bind into.
func (c *Cluster) trySteals() {
	if !c.stealing || c.runErr != nil {
		return
	}
	for moved := true; moved && c.runErr == nil; {
		moved = false
		for thief, s := range c.scheds {
			if s.InFlight() >= s.NumStreams() {
				continue
			}
			if c.stealInto(thief) {
				moved = true
			}
		}
		if moved {
			c.dispatch()
		}
	}
}

// stealInto attempts one steal for an idle thief device: choose the
// victim with the deepest committed backlog above the threshold, then
// the queued job with the largest predicted win from moving now rather
// than waiting out the victim's queue. Returns whether a job moved.
func (c *Cluster) stealInto(thief int) bool {
	victim := -1
	var victimBacklog sim.Duration
	for d, s := range c.scheds {
		if d == thief {
			continue
		}
		if b := s.PendingBacklog(); b > c.stealThreshold && b > victimBacklog {
			victim, victimBacklog = d, b
		}
	}
	if victim < 0 {
		return false
	}

	now := c.ctx.Now()
	ready := c.scheds[victim].EarliestFree()
	if ready < now {
		ready = now
	}
	streams := sim.Duration(c.scheds[victim].NumStreams())
	best := -1
	var bestGain sim.Duration
	var bestNext int
	var bestEst sim.Duration
	var ahead sim.Duration
	vs := c.scheds[victim]
	for i := range vs.QueueDepth() {
		pv := vs.PendingAt(i)
		q := *c.admitted.At(pv.Index)
		// Predicted completion if the job waits out the queue ahead of
		// it on the victim: next drain, the backlog spread over the
		// victim's streams, then its own service (pv.Est already
		// includes any staging charged at the original commitment, and
		// for a mid-job remainder covers only the remaining tasks).
		stay := ready.Add(ahead / streams).Add(pv.Est)
		var move sim.Time
		if pv.Next > 0 {
			// A mid-job remainder (WithSlicing): moving re-runs only the
			// remaining tasks — pv.Est, re-estimated at the slice
			// boundary — plus the staging residual for only the tiles
			// those tasks still need on the thief.
			move = now.Add(pv.Est).Add(c.stealRemainderStagingEst(q, pv.Next, thief))
		} else {
			// Predicted completion if it moves now: service from scratch
			// plus the staging re-charge against the thief's link —
			// residency-adjusted, so a thief already holding the job's
			// tiles prices the move without the redundant transfer.
			move = now.Add(q.Est).Add(c.stealStagingEst(q, thief))
		}
		ahead += pv.Est
		// Only strictly positive predicted gains steal. A zero gain is
		// almost always the estimate clamp of an overrunning in-flight
		// job (EarliestFree floors at now) — a coin flip in reality,
		// because the move estimate cannot see the partition and link
		// contention the stolen job adds on the thief.
		if gain := stay.Sub(move); gain > 0 && (best < 0 || gain > bestGain) {
			best, bestGain, bestNext, bestEst = pv.Index, gain, pv.Next, pv.Est
		}
	}
	if best < 0 {
		return false
	}

	q := *c.admitted.At(best)
	_, vo, ok := c.scheds[victim].Withdraw(best)
	if !ok {
		// Cannot happen: the job was listed as pending this instant.
		return false
	}
	o := c.outcomes.At(q.idx)
	if bestNext > 0 {
		c.preemptRemainder(q, vo, victim, thief, bestNext, bestEst, bestGain)
		return c.runErr == nil
	}
	// The withdrawn job's staged transfer never ran on the victim's
	// link; un-charge what this commitment added from the per-device
	// staging metric and the outcome (route() below re-charges against
	// the thief; for a never-migrated job this zeroes the fields route
	// resets anyway, for a re-stolen remainder it keeps the earlier
	// devices' real charges).
	stagedBytes, stagingEst := q.stage.charge()
	c.telStaged[victim] -= stagedBytes
	o.StagedBytes -= stagedBytes
	o.StagingEst -= stagingEst
	o.HitBytes -= q.hitBytes
	o.MissBytes -= q.missBytes
	c.telHit -= q.hitBytes
	c.telMiss -= q.missBytes
	o.Staged = o.StagedBytes > 0
	if c.resident != nil {
		// The withdrawn job's staged transfer never ran: roll back the
		// tiles its commitment installed on the victim (tiles a later
		// job refreshed since stay — that job's pricing relied on
		// them). route() below re-commits against the thief.
		c.resident.Rollback(q.rcpt)
	}
	o.Stolen = true
	o.StolenFrom = q.dev
	c.steals++
	if c.tel.Enabled() {
		c.tel.Emit(telemetry.Event{At: now, Kind: telemetry.Steal,
			Job: q.idx, ID: q.Job.ID, Tenant: tenantOf(q.Job),
			Device: thief, From: q.dev, Stream: -1, Dur: bestGain})
	}
	c.route(q, thief)
	return c.runErr == nil
}

// preemptRemainder migrates a partially-run job's undispatched
// remainder from victim to thief — the mid-job steal (DESIGN.md §13).
// The remainder was already withdrawn from the victim's pending queue,
// vo being its progress there; pvNext is its first undispatched task
// index in the victim's *submitted* task list (which leads with a
// stage task when the last commitment staged), remEst the
// sched-re-estimated remaining service.
// Unlike a pre-dispatch steal nothing is un-charged: the victim's
// staged transfer really ran, so its link traffic and the consumed
// tiles stay; only the remainder's still-needed tiles roll back,
// region-scoped, and route() re-prices exactly those against the
// thief.
func (c *Cluster) preemptRemainder(q *Queued, vo sched.JobOutcome, victim, thief, pvNext int, remEst, gain sim.Duration) {
	now := c.ctx.Now()
	o := c.outcomes.At(q.idx)
	origNext := q.next + pvNext
	if q.stage != nil {
		origNext-- // the stage task held slot 0 of the submitted list
	}
	reads, demand := remainderNeeds(q.Job, origNext)
	if c.resident != nil {
		c.resident.RollbackRegions(q.rcpt, reads)
	}
	// Carry over the victim's realized lifecycle: the job's dispatch
	// instant is its first slice's, wherever that ran, and its slice
	// count spans every device.
	if o.Slices == 0 {
		o.Start = vo.Start
	}
	o.Slices += vo.Slices
	o.Stolen = true
	o.StolenFrom = victim
	o.Migrations = append(o.Migrations, Migration{From: victim, To: thief, At: now, NextTask: origNext})
	q.next = origNext
	q.reads = reads
	q.demand = demand
	q.Est = remEst
	c.preempts++
	if c.tel.Enabled() {
		c.tel.Emit(telemetry.Event{At: now, Kind: telemetry.Preempt,
			Job: q.idx, ID: q.Job.ID, Tenant: tenantOf(q.Job),
			Device: thief, From: victim, Stream: -1, Dur: gain})
	}
	c.route(q, thief)
}

// stealStagingEst prices the staging a steal would re-charge, through
// the shared stagingPrice path (model.PredictStaging, the price of a
// staging-only workload), so the estimate carries the same calibrated
// link scales and shared-host contention as every other Fig. 11 staging
// prediction. The price is re-consulted against the residency cache
// at the steal instant: a thief already holding some of the job's
// tiles pays only the cold-miss remainder, and a thief holding all of
// them moves the job for free — the same discount an origin return
// gets. Zero when the job would land on its origin or carries no
// device-resident data.
func (c *Cluster) stealStagingEst(q *Queued, dev int) sim.Duration {
	job := q.Job
	if job.Origin < 0 || job.Origin == dev || q.demand <= 0 {
		return 0
	}
	bytes := q.demand
	if c.resident != nil && len(q.reads) > 0 {
		_, bytes = c.resident.Lookup(dev, q.reads)
	}
	return c.stagingPrice(c.stealModel, bytes)
}

// stealRemainderStagingEst prices the staging a mid-job migration
// would charge: the residual demand of only the tiles the remainder's
// remaining tasks still need, looked up read-only against the thief.
// pvNext indexes the victim's submitted task list (stage task
// included when the commitment staged).
func (c *Cluster) stealRemainderStagingEst(q *Queued, pvNext, thief int) sim.Duration {
	job := q.Job
	if job.Origin < 0 || job.Origin == thief {
		return 0
	}
	origNext := q.next + pvNext
	if q.stage != nil {
		origNext--
	}
	reads, demand := remainderNeeds(job, origNext)
	if demand <= 0 {
		return 0
	}
	bytes := demand
	if c.resident != nil && len(reads) > 0 {
		_, bytes = c.resident.Lookup(thief, reads)
	}
	return c.stagingPrice(c.stealModel, bytes)
}
