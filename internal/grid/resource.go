package grid

import (
	"rmscale/internal/routing"
	"rmscale/internal/sim"
)

// Resource is one managee node: a FCFS single server with a finite
// service rate. It reports its load to the RMS through periodic,
// change-suppressed status updates.
type Resource struct {
	id      int
	cluster int
	eng     *Engine
	// toSched and toEst are the routes to the cluster's scheduler and to
	// the resource's estimator, if any (Engine.delay).
	toSched, toEst routing.Route

	running *JobCtx
	queue   []*JobCtx
	down    bool

	// dirty is set whenever the load changed since the last sent
	// update; a clean resource suppresses its periodic update.
	dirty        bool
	lastSentLoad float64
}

// Load is the paper's loading condition: jobs in service plus queued.
func (r *Resource) Load() float64 {
	n := len(r.queue)
	if r.running != nil {
		n++
	}
	return float64(n)
}

// enqueue accepts a dispatched job. Arrival at a crashed resource
// bounces the job back to its origin scheduler.
func (r *Resource) enqueue(ctx *JobCtx) {
	if r.down {
		r.eng.bounce(ctx)
		return
	}
	r.eng.Metrics.RPOverhead += r.eng.Cfg.Costs.JobControl
	r.dirty = true
	if r.running == nil {
		r.start(ctx)
		return
	}
	r.queue = append(r.queue, ctx)
}

// start begins executing ctx now; service time is runtime / mu.
func (r *Resource) start(ctx *JobCtx) {
	r.running = ctx
	r.eng.Metrics.WaitTimes.Add(float64(r.eng.K.Now() - ctx.Job.Arrival))
	d := r.eng.acquire(opComplete)
	d.res, d.ctx = r, ctx
	r.eng.K.After(ctx.Job.Runtime/r.eng.Cfg.ServiceRate, d.fire)
}

// complete finishes the running job and records its outcome.
func (r *Resource) complete(ctx *JobCtx) {
	if r.down || r.running != ctx {
		// The job was destroyed by a crash before completing.
		return
	}
	now := r.eng.K.Now()
	m := r.eng.Metrics
	m.JobsCompleted++
	m.ResponseTimes.Add(float64(now - ctx.Job.Arrival))
	if now <= ctx.Job.Deadline() {
		m.JobsSucceeded++
		m.UsefulWork += ctx.Job.Runtime
	} else {
		// Work the pool consumed without delivering user benefit is RP
		// overhead: the resource pool spent the cycles, the client got
		// nothing. This is the dominant component of H in a stressed
		// system and is what couples the efficiency band to the
		// quality (freshness) of the RMS's information.
		m.WastedWork += ctx.Job.Runtime
		m.RPOverhead += ctx.Job.Runtime
	}
	r.running = nil
	r.dirty = true
	r.eng.jobTerminated(ctx.Job.ID)
	if len(r.queue) > 0 {
		// Shift down in place: reslicing from the front would shed
		// capacity and make the queue re-grow.
		next := r.queue[0]
		n := copy(r.queue, r.queue[1:])
		r.queue[n] = nil
		r.queue = r.queue[:n]
		r.start(next)
	}
}

// startUpdates arms the periodic status updates with a phase offset so
// the whole pool does not synchronize its update bursts.
func (r *Resource) startUpdates(tau float64, phase *sim.Stream) {
	offset := phase.Uniform(0, tau)
	r.eng.K.After(offset, func() {
		r.tick()
		sim.NewTicker(r.eng.K, tau, r.tick)
	})
}

// tick sends one status update unless suppressed. The paper's update
// optimization: when the load did not change significantly since the
// previous update, the update is suppressed; all periodic schemes share
// this behaviour.
func (r *Resource) tick() {
	if r.down {
		return
	}
	load := r.Load()
	delta := r.eng.Cfg.Protocol.SuppressDelta
	// Delta 0 disables the update optimization entirely: every tick
	// sends, whether or not anything changed.
	changed := delta <= 0 || (r.dirty && abs(load-r.lastSentLoad) >= delta)
	// A freshly idle resource must still heal the scheduler's
	// optimistic view even when the delta threshold is large.
	if r.dirty && load == 0 && r.lastSentLoad != 0 {
		changed = true
	}
	if !changed {
		r.eng.Metrics.UpdatesSuppressed++
		return
	}
	r.dirty = false
	r.lastSentLoad = load
	r.eng.sendStatusUpdate(r, load)
}

// crash destroys the queue and takes the resource down; the engine
// schedules the repair.
func (r *Resource) crash() {
	if r.down {
		return
	}
	lost := len(r.queue)
	for _, ctx := range r.queue {
		r.eng.jobTerminated(ctx.Job.ID)
	}
	if r.running != nil {
		lost++
		r.eng.jobTerminated(r.running.Job.ID)
	}
	r.eng.Metrics.JobsLost += lost
	r.queue = nil
	r.running = nil
	r.down = true
	r.eng.K.After(r.eng.Cfg.Faults.RepairTime, r.repair)
}

// repair brings the resource back empty and dirty (so the next tick
// reports the fresh state).
func (r *Resource) repair() {
	r.down = false
	r.dirty = true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
