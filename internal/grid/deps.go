package grid

import (
	"rmscale/internal/sim"
	"rmscale/internal/workload"
)

// Precedence support (the paper's future-work item (b)): a job with
// Deps is held by the engine until every parent job has terminated
// (completed or been lost); only then does it enter scheduling, at its
// arrival time or at the moment of release, whichever is later.

// depTracker holds dependent jobs until their parents terminate.
type depTracker struct {
	// outstanding[jobID] is how many parents are still running.
	outstanding map[int]int
	// waiters[parentID] lists jobs waiting on that parent.
	waiters map[int][]*workload.Job
	// done records terminated job ids (for deps on jobs that finish
	// before the dependent is even examined).
	done map[int]bool
	// arrived records held jobs whose arrival time already passed.
	arrived map[int]bool
}

func newDepTracker() *depTracker {
	return &depTracker{
		outstanding: make(map[int]int),
		waiters:     make(map[int][]*workload.Job),
		done:        make(map[int]bool),
		arrived:     make(map[int]bool),
	}
}

// register examines a job's dependencies before the run starts and
// returns whether the job must be held.
func (d *depTracker) register(j *workload.Job) (held bool) {
	n := 0
	for _, parent := range j.Deps {
		if d.done[parent] {
			continue
		}
		d.waiters[parent] = append(d.waiters[parent], j)
		n++
	}
	if n == 0 {
		return false
	}
	d.outstanding[j.ID] = n
	return true
}

// terminate marks a job terminated and returns the dependents that
// became released by it.
func (d *depTracker) terminate(jobID int) []*workload.Job {
	if d.done[jobID] {
		return nil
	}
	d.done[jobID] = true
	var released []*workload.Job
	for _, w := range d.waiters[jobID] {
		d.outstanding[w.ID]--
		if d.outstanding[w.ID] == 0 {
			delete(d.outstanding, w.ID)
			released = append(released, w)
		}
	}
	delete(d.waiters, jobID)
	return released
}

// Held reports how many jobs are currently waiting on parents.
func (d *depTracker) Held() int { return len(d.outstanding) }

// startArrivals puts the whole arrival stream on one lane. The jobs are
// sorted by arrival (Generate and UseJobs guarantee it), so each append
// takes its sequence number in job order, exactly as one Schedule per
// job would, and a single callback walks the list. A job held on
// precedence constraints only records that its arrival time passed, so
// a later release admits it at once (see jobTerminated).
func (e *Engine) startArrivals() {
	var held []bool
	for _, j := range e.jobs {
		if len(j.Deps) > 0 {
			held = e.registerDeps()
			break
		}
	}
	lane := sim.NewLane(e.K)
	next := 0
	arrive := func() {
		i := next
		next++
		j := e.jobs[i]
		if held != nil && held[i] {
			if e.depsT.outstanding[j.ID] > 0 {
				e.depsT.arrived[j.ID] = true
			}
			return
		}
		e.admitJob(j)
	}
	for _, j := range e.jobs {
		lane.Append(j.Arrival, arrive)
	}
}

// registerDeps arms the dependency tracker for a workload containing
// precedence constraints and reports, per job, whether it starts held
// on parents.
func (e *Engine) registerDeps() []bool {
	e.depsT = newDepTracker()
	held := make([]bool, len(e.jobs))
	for i, j := range e.jobs {
		held[i] = len(j.Deps) > 0 && e.depsT.register(j)
	}
	return held
}

// admitJob delivers a job to its submission scheduler. With faults
// armed the admission goes through the fault-aware path: a down
// scheduler parks the submission until its repair, and the engine
// starts tracking which scheduler is responsible for the job.
func (e *Engine) admitJob(j *workload.Job) {
	s := e.Schedulers[j.Cluster]
	e.Metrics.JobsAdmitted++
	if e.Tracer.On() {
		e.Tracer.Tracef("arrival", "job %d at cluster %d (%v)", j.ID, j.Cluster, j.Class)
	}
	ctx := e.newJobCtx(j)
	if e.fs != nil {
		e.deliverToScheduler(s, ctx)
		return
	}
	e.policy.OnJob(s, ctx)
}

// newJobCtx carves the job's envelope out of the engine's backing
// array. Each job is admitted once, so one array sized to the workload
// serves the whole run; envelopes are never returned, so a refill never
// moves one that is still in flight.
func (e *Engine) newJobCtx(j *workload.Job) *JobCtx {
	if len(e.ctxs) == 0 {
		//lint:allow hotalloc slice refill: one backing array per engine, sized to the workload, so a run normally refills once
		e.ctxs = make([]JobCtx, max(len(e.jobs), 16))
	}
	ctx := &e.ctxs[0]
	e.ctxs = e.ctxs[1:]
	*ctx = JobCtx{Job: j, Origin: j.Cluster}
	return ctx
}

// jobTerminated releases dependents of a finished (or lost) job.
func (e *Engine) jobTerminated(jobID int) {
	if e.depsT == nil {
		return
	}
	for _, w := range e.depsT.terminate(jobID) {
		w := w
		if e.K.Now() >= w.Arrival || e.depsT.arrived[w.ID] {
			if e.Tracer.On() {
				e.Tracer.Tracef("release", "job %d released by job %d", w.ID, jobID)
			}
			e.admitJob(w)
			continue
		}
		//lint:allow hotalloc deferred admission of a not-yet-arrived dependent: once per held job, only in workloads with precedence constraints
		e.K.Schedule(w.Arrival, func() { e.admitJob(w) })
	}
}

// HeldJobs reports how many jobs are still waiting on precedence
// constraints (0 when the workload has none).
func (e *Engine) HeldJobs() int {
	if e.depsT == nil {
		return 0
	}
	return e.depsT.Held()
}
