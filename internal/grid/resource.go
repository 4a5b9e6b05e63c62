package grid

import (
	"rmscale/internal/routing"
	"rmscale/internal/sim"
)

// Resource is one managee node: a FCFS single server with a finite
// service rate. It reports its load to the RMS through periodic,
// change-suppressed status updates.
//
// The update ticks fall at the times a ticker of period tau would fire
// them, but a tick enters the event list only while the resource's
// state would send an update there (wouldSend). The state changes only
// in enqueue, complete, StealQueuedJob, crash and repair; each counts
// the ticks skipped since the last change (settle), applies the change,
// then arms the next tick if it would now send (arm). Ticks still
// skipped when the run ends are counted by Engine.Run.
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

	// The tick clock. due is the time of the next tick not yet fired or
	// counted; armed is set while a fireTick event is pending at due.
	// fireTick is onTick as a method value, bound once in startUpdates;
	// nil until then, which leaves the clock stopped.
	due      sim.Time
	tau      sim.Time
	armed    bool
	fireTick func()
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
	r.settle()
	r.eng.Metrics.RPOverhead += r.eng.Cfg.Costs.JobControl
	r.dirty = true
	if r.running == nil {
		r.start(ctx)
	} else {
		r.queue = append(r.queue, ctx)
	}
	r.arm()
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
	r.settle()
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
	r.arm()
}

// startUpdates starts the tick clock with a phase offset so the whole
// pool does not synchronize its update bursts.
func (r *Resource) startUpdates(tau float64, phase *sim.Stream) {
	offset := phase.Uniform(0, tau)
	r.due, r.tau = r.eng.K.Now()+offset, tau
	r.fireTick = r.onTick
	r.arm()
}

// wouldSend reports whether a tick now would send a status update. The
// paper's update optimization: when the load did not change
// significantly since the previous update, the update is suppressed;
// all periodic schemes share this behaviour.
func (r *Resource) wouldSend() bool {
	if r.down {
		return false
	}
	delta := r.eng.Cfg.Protocol.SuppressDelta
	// Delta 0 disables the update optimization entirely: every tick
	// sends, whether or not anything changed.
	if delta <= 0 {
		return true
	}
	if !r.dirty {
		return false
	}
	load := r.Load()
	// A freshly idle resource must still heal the scheduler's
	// optimistic view even when the delta threshold is large.
	return abs(load-r.lastSentLoad) >= delta || load == 0 && r.lastSentLoad != 0
}

// tick sends one status update unless suppressed.
func (r *Resource) tick() {
	if r.down {
		return
	}
	if !r.wouldSend() {
		r.eng.Metrics.UpdatesSuppressed++
		return
	}
	load := r.Load()
	r.dirty = false
	r.lastSentLoad = load
	r.eng.sendStatusUpdate(r, load)
}

// onTick is the armed tick's event: the tick at due, then the clock
// moves one period on (due+tau is the ticker's now+period bit for bit,
// since the tick fires at due) and re-arms if the state still sends.
//
//lint:hotpath every sending status tick; TestEngineWarmStepZeroAlloc pins it allocation-free once warm
func (r *Resource) onTick() {
	r.armed = false
	r.tick()
	r.due += r.tau
	r.arm()
}

// arm puts the tick at due in the event list if the resource's state
// would send an update there. An unarmed resource's ticks are all
// suppressed until its state next changes.
func (r *Resource) arm() {
	if r.armed || r.fireTick == nil || !r.wouldSend() {
		return
	}
	r.armed = true
	r.eng.K.Schedule(r.due, r.fireTick)
}

// settle counts the ticks an unarmed resource skipped strictly before
// now, ahead of a state change: a tick at exactly now sees the changed
// state.
func (r *Resource) settle() { r.skipTicks(r.eng.K.Now(), false) }

// skipTicks moves an unarmed tick clock past every tick before end, or
// at it too when through is set, without firing them. Unarmed, each
// such tick would have been suppressed, or, while the resource was
// down, done nothing at all (tick's early return). The clock advances
// by repeated addition, as a ticker's does, so the next fired tick
// falls at the ticker's time exactly.
func (r *Resource) skipTicks(end sim.Time, through bool) {
	if r.armed || r.fireTick == nil {
		return
	}
	n := 0
	for r.due < end || through && r.due == end {
		r.due += r.tau
		n++
	}
	if !r.down {
		r.eng.Metrics.UpdatesSuppressed += n
	}
}

// crash destroys the queue and takes the resource down; the engine
// schedules the repair.
func (r *Resource) crash() {
	if r.down {
		return
	}
	r.settle()
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
	// A down resource sends nothing, so there is no tick to arm.
}

// repair brings the resource back empty and dirty (so the next tick
// reports the fresh state).
func (r *Resource) repair() {
	r.settle()
	r.down = false
	r.dirty = true
	r.arm()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
