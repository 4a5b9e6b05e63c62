package grid

import (
	"sort"

	"rmscale/internal/routing"
	"rmscale/internal/sim"
)

// This file is the engine's fault-tolerance layer: scheduler and
// estimator crash/repair processes, access-link outages, protocol
// message loss with sender-side timeout/retry, and job failover off
// crashed schedulers. The whole layer is armed only when the config
// enables a protocol fault class (FaultModel.protocolFaults); with it
// disarmed, every hot path below collapses to the pre-fault code and a
// run is byte-identical to one produced before this file existed.

// faultState holds the armed protocol-fault machinery. Each fault
// process draws from its own dedicated named stream so enabling one
// class never perturbs another, nor the workload/topology streams.
type faultState struct {
	sched   *sim.Stream // scheduler crash gaps
	est     *sim.Stream // estimator crash gaps
	msg     *sim.Stream // per-message loss draws
	outages *routing.Outages

	// lossWindows holds scripted [start, end) intervals during which
	// every protocol message is lost, independent of the random loss
	// draw (see script.go). Empty outside chaos runs.
	lossWindows []lossWindow
	// scripted marks that explicit fault injections were registered, so
	// the auditor knows fault counters may legitimately be non-zero even
	// when the random FaultModel is all-zero.
	scripted bool
}

// lossWindow is one scripted total-loss interval.
type lossWindow struct{ start, end sim.Time }

// scriptedLoss reports whether a scripted loss window covers t.
func (fs *faultState) scriptedLoss(t sim.Time) bool {
	for _, w := range fs.lossWindows {
		if t >= w.start && t < w.end {
			return true
		}
	}
	return false
}

// setupFaults arms the protocol-fault machinery: dedicated streams plus
// a pre-planned access-link outage schedule over the scheduler and
// estimator endpoints.
func (e *Engine) setupFaults() error {
	fs := &faultState{
		sched: e.src.Stream("faults:sched"),
		est:   e.src.Stream("faults:est"),
		msg:   e.src.Stream("faults:msg"),
	}
	f := e.Cfg.Faults
	nodes := make([]int, 0, len(e.Schedulers)+len(e.Estimators))
	for _, s := range e.Schedulers {
		nodes = append(nodes, s.node)
	}
	for _, est := range e.Estimators {
		nodes = append(nodes, est.node)
	}
	out, err := routing.PlanOutages(nodes, f.LinkOutageMTBF, f.LinkOutageDuration,
		e.Cfg.Horizon+e.Cfg.Drain, e.src.Stream("faults:links"))
	if err != nil {
		return err
	}
	fs.outages = out
	e.fs = fs
	return nil
}

// armSchedulerCrash schedules s's next crash and, with it, the repair
// that re-arms the following one — the same cycle resources use.
func (e *Engine) armSchedulerCrash(s *Scheduler) {
	gap := e.fs.sched.Exp(e.Cfg.Faults.SchedulerMTBF)
	if gap <= 0 {
		return
	}
	e.K.After(gap, func() {
		e.crashScheduler(s, e.Cfg.Faults.SchedulerRepair)
		e.K.After(e.Cfg.Faults.SchedulerRepair, func() {
			e.repairScheduler(s)
			e.armSchedulerCrash(s)
		})
	})
}

// crashScheduler takes the scheduler down for the given repair
// duration: queued CPU work is destroyed (the epoch bump invalidates
// every closure its Exec chain holds) and the jobs it is responsible
// for fail over to a live peer. The repair duration is a parameter so
// scripted crashes (script.go) account their actual downtime.
func (e *Engine) crashScheduler(s *Scheduler, repair sim.Time) {
	if s.down {
		return
	}
	s.down = true
	s.cpu.epoch++
	e.Metrics.SchedulerCrashes++
	e.Metrics.SchedulerDowntime += repair
	if e.Tracer.On() {
		e.Tracer.Tracef("fault", "scheduler %d crashed", s.cluster)
	}
	e.rehomeOwned(s)
}

// repairScheduler brings the scheduler back and drains the jobs that
// were parked on it while it was down.
func (e *Engine) repairScheduler(s *Scheduler) {
	s.down = false
	if e.Tracer.On() {
		e.Tracer.Tracef("fault", "scheduler %d repaired", s.cluster)
	}
	parked := s.parked
	s.parked = nil
	for _, ctx := range parked {
		e.deliverToScheduler(s, ctx)
	}
}

// rehomeOwned fails the crashed scheduler's jobs over to the first live
// cluster in its peer list, in job-ID order for determinism. With no
// live peer (a central scheduler, or a neighborhood-wide blackout) the
// jobs park on the crashed scheduler until its repair — submissions
// outlive the manager, they do not vanish with it.
func (e *Engine) rehomeOwned(s *Scheduler) {
	if len(s.owned) == 0 {
		return
	}
	ids := make([]int, 0, len(s.owned))
	for id := range s.owned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Failover is detected by the submission client timing out, so the
	// re-homed job reaches its new cluster one retry timeout plus one
	// transfer delay after the crash.
	detect := e.Cfg.Faults.RetryTimeout
	for _, id := range ids {
		ctx := s.owned[id]
		delete(s.owned, id)
		dst := e.firstLivePeer(s)
		if dst == nil {
			s.parked = append(s.parked, ctx)
			e.Metrics.JobsParked++
			continue
		}
		e.Metrics.Failovers++
		// Failover forfeits routing freedom: the job places locally at
		// its new home instead of re-entering the transfer protocol.
		ctx.Hops++
		if e.Tracer.On() {
			e.Tracer.Tracef("fault", "job %d fails over: cluster %d -> %d", ctx.Job.ID, s.cluster, dst.cluster)
		}
		e.K.After(detect+e.delay(s.netIdx, dst.netIdx, e.Cfg.JobBytes), func() {
			e.deliverToScheduler(dst, ctx)
		})
	}
}

// firstLivePeer returns the first live scheduler in s's peer list.
func (e *Engine) firstLivePeer(s *Scheduler) *Scheduler {
	for _, p := range s.peers {
		if !e.Schedulers[p].down {
			return e.Schedulers[p]
		}
	}
	return nil
}

// deliverToScheduler hands a job envelope to a scheduler outside the
// normal transfer path (admission, bounce, failover, repair drain). A
// down scheduler parks the job until its repair.
func (e *Engine) deliverToScheduler(s *Scheduler, ctx *JobCtx) {
	if s.down {
		s.parked = append(s.parked, ctx)
		e.Metrics.JobsParked++
		return
	}
	s.own(ctx)
	e.policy.OnJob(s, ctx)
}

// armEstimatorCrash schedules est's next crash/repair cycle.
func (e *Engine) armEstimatorCrash(est *Estimator) {
	gap := e.fs.est.Exp(e.Cfg.Faults.EstimatorMTBF)
	if gap <= 0 {
		return
	}
	e.K.After(gap, func() {
		e.crashEstimator(est, e.Cfg.Faults.EstimatorRepair)
		e.K.After(e.Cfg.Faults.EstimatorRepair, func() {
			e.repairEstimator(est)
			e.armEstimatorCrash(est)
		})
	})
}

// crashEstimator takes the estimator down, destroying its buffered
// status and queued CPU work. Its resources fall back to direct
// scheduler updates until the repair (see sendStatusUpdate).
func (e *Engine) crashEstimator(est *Estimator, repair sim.Time) {
	if est.down {
		return
	}
	est.down = true
	est.cpu.epoch++
	for c := range est.buffer {
		est.buffer[c] = est.buffer[c][:0]
	}
	e.Metrics.EstimatorCrashes++
	e.Metrics.EstimatorDowntime += repair
	if e.Tracer.On() {
		e.Tracer.Tracef("fault", "estimator %d crashed", est.id)
	}
}

// repairEstimator brings the estimator back empty.
func (e *Engine) repairEstimator(est *Estimator) {
	est.down = false
	if e.Tracer.On() {
		e.Tracer.Tracef("fault", "estimator %d repaired", est.id)
	}
}

// protoSend carries one protocol payload under the armed fault model.
// The message can be lost in transit (random loss, or a severed access
// link at either end) or arrive at a dead scheduler; each loss is
// detected by a sender-side timeout and retransmitted with binary
// backoff until the retry budget runs out, at which point abandon (when
// non-nil) decides the payload's fate.
func (e *Engine) protoSend(fromNode int, dst *Scheduler, net sim.Time, attempt int, deliver, abandon func()) {
	f := e.Cfg.Faults
	lost := e.fs.outages.SeveredPath(fromNode, dst.node, e.K.Now())
	if !lost && e.fs.scriptedLoss(e.K.Now()) {
		lost = true
	}
	if !lost && f.MsgLossProb > 0 && e.fs.msg.Bool(f.MsgLossProb) {
		lost = true
	}
	if lost {
		e.Metrics.MsgsLost++
		e.retryOrAbandon(fromNode, dst, net, attempt, deliver, abandon)
		return
	}
	//lint:allow hotalloc the liveness-checking wrapper exists only with protocol faults armed; the churn gate budgets it
	wrapped := func() {
		if dst.down {
			e.Metrics.MsgsLost++
			e.retryOrAbandon(fromNode, dst, net, attempt, deliver, abandon)
			return
		}
		deliver()
	}
	e.route(net, wrapped)
}

// retryOrAbandon retransmits a lost message after RetryTimeout*2^attempt,
// or gives up once the budget is exhausted.
func (e *Engine) retryOrAbandon(fromNode int, dst *Scheduler, net sim.Time, attempt int, deliver, abandon func()) {
	if attempt >= e.Cfg.Faults.MaxRetries {
		e.Metrics.MsgsAbandoned++
		if abandon != nil {
			abandon()
		}
		return
	}
	e.Metrics.MsgRetries++
	backoff := e.Cfg.Faults.RetryTimeout * float64(uint(1)<<uint(attempt))
	//lint:allow hotalloc retry fires only after a lost message — fault path, not steady state
	e.K.After(backoff, func() {
		e.protoSend(fromNode, dst, net, attempt+1, deliver, abandon)
	})
}

// own records that the scheduler is currently responsible for the job:
// it holds it in a protocol session or its decision queue. Ownership is
// tracked only while protocol faults are armed; a crash re-homes every
// owned job.
func (s *Scheduler) own(ctx *JobCtx) {
	if s.eng.fs == nil {
		return
	}
	if s.owned == nil {
		//lint:allow hotalloc lazy one-time map init, first owned job per scheduler only
		s.owned = make(map[int]*JobCtx)
	}
	s.owned[ctx.Job.ID] = ctx
}

// disown releases responsibility for the job (it was dispatched,
// transferred away, or dropped). It reports false when the scheduler no
// longer holds the job — the signature of a stale protocol action from
// a session that a crash already disbanded. Fault-free it always
// succeeds.
func (s *Scheduler) disown(ctx *JobCtx) bool {
	if s.eng.fs == nil {
		return true
	}
	if cur, ok := s.owned[ctx.Job.ID]; ok && cur == ctx {
		delete(s.owned, ctx.Job.ID)
		return true
	}
	return false
}

// Down reports whether the scheduler is crashed.
func (s *Scheduler) Down() bool { return s.down }

// ParkedCount reports how many jobs are currently parked on the
// scheduler waiting out its downtime.
func (s *Scheduler) ParkedCount() int { return len(s.parked) }

// OwnedCount reports how many jobs the scheduler is currently
// responsible for (always 0 without armed protocol faults).
func (s *Scheduler) OwnedCount() int { return len(s.owned) }

// Down reports whether the estimator is crashed.
func (e *Estimator) Down() bool { return e.down }
