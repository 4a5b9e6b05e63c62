package grid

import (
	"fmt"

	"rmscale/internal/routing"
	"rmscale/internal/sim"
	"rmscale/internal/topology"
	"rmscale/internal/workload"
)

const (
	defaultMaxEvents = 50_000_000
	// defaultStallEvents trips the kernel's no-progress watchdog after
	// this many consecutive events at one timestamp. No legitimate
	// configuration concentrates a million events on a single instant
	// (whole runs process a few million over thousands of time units),
	// so tripping it always indicates a zero-delay event cycle.
	defaultStallEvents = 1_000_000
	maxJobAttempts     = 4
	maxJobHops         = 3
	// resourceQueueSlots is the queue capacity each resource starts
	// with (see NewWith).
	resourceQueueSlots = 4
)

// Engine wires topology, routing, workload, entities and a Policy into
// one runnable simulation.
type Engine struct {
	Cfg     Config
	K       *sim.Kernel
	Graph   *topology.Graph
	Map     *topology.Mapping
	Metrics *Metrics

	Resources  []*Resource
	Schedulers []*Scheduler
	Estimators []*Estimator

	// AuditHook, when set before Run, fires once after the event loop
	// finishes and before the summary is derived. internal/audit claims
	// it for the final drain-time invariant check; it is a generic hook
	// so grid never imports the auditor.
	AuditHook func()

	policy Policy
	jobs   []*workload.Job
	src    *sim.Source
	faults *sim.Stream
	fs     *faultState // nil unless protocol faults are armed
	mw     *middleware
	depsT  *depTracker

	// localIdx maps a resource id to its index within its cluster's
	// resource list — the slot the owning scheduler's dense view array
	// uses for it (see Scheduler.views).
	localIdx []int

	// free is the delivery-record free list (delivery.go); ctxs is the
	// unused tail of the backing array job envelopes are carved from
	// (newJobCtx).
	free []*delivery
	ctxs []JobCtx

	unfinished int // jobs dropped or stranded
}

// New builds an engine for the config and policy. The build is
// deterministic in cfg.Seed. A central policy collapses the cluster
// layout to a single scheduler coordinating the whole pool, keeping the
// total resource count identical.
func New(cfg Config, p Policy) (*Engine, error) {
	return NewWith(cfg, p, nil)
}

// NewWith is New with an optional pre-built substrate (topology,
// mapping, routes, job streams); tuners evaluating many enabler
// settings at one scale factor share a substrate to avoid rebuilding
// them. Passing nil builds a fresh substrate. The substrate must match
// the structural part of the config after the central-policy collapse.
func NewWith(cfg Config, p Policy, sub *Substrate) (*Engine, error) {
	if p == nil {
		return nil, fmt.Errorf("grid: nil policy")
	}
	if p.Central() {
		cfg.Spec = topology.GridSpec{
			Clusters:    1,
			ClusterSize: cfg.Spec.Clusters * cfg.Spec.ClusterSize,
			Estimators:  cfg.Spec.Estimators,
		}
		cfg.Workload.Clusters = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		Cfg:     cfg,
		K:       sim.NewKernel(),
		Metrics: &Metrics{},
		policy:  p,
		src:     sim.NewSource(cfg.Seed),
	}
	e.K.MaxEvents = cfg.MaxEvents
	if e.K.MaxEvents == 0 {
		e.K.MaxEvents = defaultMaxEvents
	}
	e.K.StallEvents = cfg.StallEvents
	if e.K.StallEvents == 0 {
		e.K.StallEvents = defaultStallEvents
	}

	if sub == nil {
		var err error
		sub, err = BuildSubstrate(cfg)
		if err != nil {
			return nil, err
		}
	} else if !sub.Matches(cfg) {
		return nil, fmt.Errorf("grid: substrate does not match config")
	}
	e.Graph = sub.Graph
	mp := sub.Map
	e.Map = mp

	// Entities. Each one takes its rows of the substrate's route tables
	// here, so a message's delay is one lookup (see delay).
	e.localIdx = make([]int, mp.Resources())
	for _, rs := range mp.ClusterResources {
		for i, rid := range rs {
			e.localIdx[rid] = i
		}
	}
	e.Metrics.SchedulerBusy = make([]float64, cfg.Spec.Clusters)
	e.Metrics.EstimatorBusy = make([]float64, cfg.Spec.Estimators)
	for c := 0; c < cfg.Spec.Clusters; c++ {
		s := &Scheduler{
			cluster: c,
			node:    mp.SchedulerNode[c],
			toSched: sub.schedToSched[c],
			toRes:   sub.schedToRes[c],
			eng:     e,
			views:   make([]resourceView, len(mp.ClusterResources[c])),
			rand:    e.src.Stream(fmt.Sprintf("sched:%d", c)),
		}
		s.cpu.init(e.K, s.cpu.runGuarded)
		s.peers = buildPeers(c, cfg.Spec.Clusters, cfg.Enablers.NeighborhoodSize, s.rand)
		s.permScratch = make([]int, len(s.peers))
		s.peerScratch = make([]int, len(s.peers))
		e.Schedulers = append(e.Schedulers, s)
	}
	// Every resource queue starts with a few slots carved from one
	// shared array, so the common short queue never allocates; a longer
	// one outgrows its slots into a private array.
	queues := make([]*JobCtx, resourceQueueSlots*mp.Resources())
	for r := 0; r < mp.Resources(); r++ {
		lo := r * resourceQueueSlots
		res := &Resource{
			id:      r,
			toSched: sub.resToSched[r],
			cluster: mp.ResourceCluster[r],
			eng:     e,
			queue:   queues[lo : lo : lo+resourceQueueSlots],
		}
		if sub.resToEst != nil {
			res.toEst = sub.resToEst[r]
		}
		e.Resources = append(e.Resources, res)
	}
	for i := 0; i < cfg.Spec.Estimators; i++ {
		est := &Estimator{
			id:      i,
			node:    mp.EstimatorNode[i],
			toSched: sub.estToSched[i],
			eng:     e,
			buffer:  make([][]statusItem, cfg.Spec.Clusters),
		}
		est.cpu.init(e.K, est.cpu.runGuarded)
		e.Estimators = append(e.Estimators, est)
	}
	if p.UsesMiddleware() {
		e.mw = &middleware{eng: e}
		e.mw.cpu.init(e.K, e.mw.forward)
	}
	e.faults = e.src.Stream("faults")
	if cfg.Faults.protocolFaults() {
		if err := e.setupFaults(); err != nil {
			return nil, err
		}
	}

	// Workload, shared with every engine on the substrate.
	jobs, err := sub.jobStream(cfg.Workload)
	if err != nil {
		return nil, err
	}
	e.jobs = jobs

	p.Attach(e)
	return e, nil
}

// buildPeers samples a neighborhood of remote clusters.
func buildPeers(self, clusters, size int, st *sim.Stream) []int {
	others := make([]int, 0, clusters-1)
	for c := 0; c < clusters; c++ {
		if c != self {
			others = append(others, c)
		}
	}
	if size >= len(others) {
		return others
	}
	idx := st.Sample(len(others), size)
	out := make([]int, size)
	for i, j := range idx {
		out[i] = others[j]
	}
	return out
}

// Clusters returns the number of scheduler clusters.
func (e *Engine) Clusters() int { return len(e.Schedulers) }

// Scheduler returns cluster c's scheduler.
func (e *Engine) Scheduler(c int) *Scheduler { return e.Schedulers[c] }

// Jobs returns the workload. A generated workload is shared with every
// engine built on the same substrate, so the jobs are read-only.
//
//lint:allow deadcode test seam: rms.TestFaultStreamsIndependent compares the job streams of a clean and a faulted engine
func (e *Engine) Jobs() []*workload.Job { return e.jobs }

// UseJobs replaces the generated workload with an explicit job list —
// e.g. one imported from a Standard Workload Format trace — before Run.
// Jobs must be sorted by arrival and reference valid clusters.
func (e *Engine) UseJobs(jobs []*workload.Job) error {
	if e.K.Processed() != 0 {
		return fmt.Errorf("grid: UseJobs after the simulation started")
	}
	own := make([]*workload.Job, len(jobs))
	last := sim.Time(0)
	for i, j := range jobs {
		if j == nil {
			return fmt.Errorf("grid: nil job at %d", i)
		}
		if j.Arrival < last {
			return fmt.Errorf("grid: job %d arrives out of order", j.ID)
		}
		last = j.Arrival
		if j.Runtime <= 0 {
			return fmt.Errorf("grid: job %d has non-positive runtime", j.ID)
		}
		if j.Cluster < 0 {
			return fmt.Errorf("grid: job %d targets negative cluster", j.ID)
		}
		own[i] = j
		if j.Cluster >= e.Clusters() {
			// A central engine has one cluster: every submission goes
			// to the single scheduler, so remap on a private copy.
			if e.Clusters() != 1 {
				return fmt.Errorf("grid: job %d targets cluster %d of %d", j.ID, j.Cluster, e.Clusters())
			}
			cp := *j
			cp.Cluster = 0
			own[i] = &cp
		}
	}
	e.jobs = own
	return nil
}

// Unfinished returns jobs that were dropped or never completed.
func (e *Engine) Unfinished() int { return e.unfinished }

// Run executes the simulation to its horizon (arrivals) plus drain and
// returns the summary. Run may be called once per engine.
func (e *Engine) Run() Summary {
	e.Metrics.JobsArrived = len(e.jobs)

	// Status update tick clocks.
	phase := e.src.Stream("phase")
	for _, r := range e.Resources {
		r.startUpdates(e.Cfg.Enablers.UpdateInterval, phase)
	}
	for _, est := range e.Estimators {
		est.startDigests(e.Cfg.Protocol.EstimatorInterval, phase)
	}
	// Volunteering ticks. A crashed scheduler skips its tick; the
	// ticker itself survives the outage.
	for _, s := range e.Schedulers {
		s := s
		tick := func() {
			if s.down {
				return
			}
			e.policy.OnTick(s)
		}
		offset := phase.Uniform(0, e.Cfg.Enablers.VolunteerInterval)
		e.K.After(offset, func() {
			tick()
			sim.NewTicker(e.K, e.Cfg.Enablers.VolunteerInterval, tick)
		})
	}
	// Failure injection.
	if e.Cfg.Faults.ResourceMTBF > 0 {
		for _, r := range e.Resources {
			e.scheduleCrash(r)
		}
	}
	if e.fs != nil {
		if e.Cfg.Faults.SchedulerMTBF > 0 {
			for _, s := range e.Schedulers {
				e.armSchedulerCrash(s)
			}
		}
		if e.Cfg.Faults.EstimatorMTBF > 0 {
			for _, est := range e.Estimators {
				e.armEstimatorCrash(est)
			}
		}
	}
	e.startArrivals()

	window := e.Cfg.Horizon + e.Cfg.Drain
	e.K.Run(window)
	// Count the ticks skipped up to where the run stopped: the window's
	// end, whose events Run fires too, or the time at which the event
	// budget or the watchdog cut it short.
	for _, r := range e.Resources {
		r.skipTicks(e.K.Now(), true)
	}
	e.unfinished += e.Metrics.JobsArrived - e.Metrics.JobsCompleted - e.Metrics.JobsLost
	if e.AuditHook != nil {
		e.AuditHook()
	}
	return e.Metrics.Summarize(window)
}

// scheduleCrash arms the next crash of r.
func (e *Engine) scheduleCrash(r *Resource) {
	gap := e.faults.Exp(e.Cfg.Faults.ResourceMTBF)
	if gap <= 0 {
		return
	}
	e.K.After(gap, func() {
		r.crash()
		e.K.After(e.Cfg.Faults.RepairTime, func() { e.scheduleCrash(r) })
	})
}

// delay computes the end-to-end network delay of a message of the
// given size over route rt: path latency scaled by the LinkDelayScale
// enabler plus the transmission time over the bottleneck link. A route
// between co-located endpoints has latency 0 and bandwidth +Inf, so its
// delay is zero.
func (e *Engine) delay(rt routing.Route, size float64) sim.Time {
	d := rt.Latency*e.Cfg.Enablers.LinkDelayScale + size/rt.Bandwidth
	if d < 0 {
		d = 0
	}
	return d
}

// sendStatusUpdate routes one resource status update to its estimator
// (when the estimator layer exists) or directly to its scheduler.
//
//lint:hotpath status updates dominate engine event volume; TestEngineWarmStepZeroAlloc pins them allocation-free once warm
func (e *Engine) sendStatusUpdate(r *Resource, load float64) {
	if e.Cfg.Faults.UpdateLossProb > 0 && e.faults.Bool(e.Cfg.Faults.UpdateLossProb) {
		e.Metrics.UpdatesLost++
		return
	}
	e.Metrics.UpdatesSent++
	at := e.K.Now()
	if len(e.Estimators) > 0 {
		est := e.Estimators[estimatorOf(r.id, len(e.Estimators))]
		if e.fs == nil || !est.down {
			d := e.acquire(opEstimatorArrive)
			d.est, d.rid, d.load, d.at = est, r.id, load, at
			e.K.After(e.delay(r.toEst, e.Cfg.UpdateBytes), d.fire)
			return
		}
		// Estimator death falls back to a direct scheduler update.
		e.Metrics.EstimatorFallbacks++
	}
	s := e.Schedulers[r.cluster]
	if e.fs != nil && s.down {
		e.Metrics.UpdatesLost++
		return
	}
	d := e.acquire(opUpdateArrive)
	d.sched, d.rid, d.load, d.at = s, r.id, load, at
	e.K.After(e.delay(r.toSched, e.Cfg.UpdateBytes), d.fire)
}

// broadcastDigest distributes an estimator digest to every scheduler.
// Each scheduler pays the batch base cost plus a per-entry cost for the
// entries belonging to its own cluster, then sees a policy OnStatus —
// push models pay their trigger check per digest received, which is
// what couples their overhead to the estimator count.
//
//lint:hotpath digest fan-out runs once per estimator period per scheduler; TestEngineAllocBudgetEstimatorDigests budgets it
func (e *Engine) broadcastDigest(est *Estimator, dg *digest) {
	for _, s := range e.Schedulers {
		if e.fs != nil && s.down {
			e.Metrics.UpdatesLost++
			continue
		}
		if e.Cfg.Faults.UpdateLossProb > 0 && e.faults.Bool(e.Cfg.Faults.UpdateLossProb) {
			e.Metrics.UpdatesLost++
			continue
		}
		e.Metrics.DigestsSent++
		d := e.acquire(opDigestArrive)
		d.sched, d.dg = s, dg
		e.K.After(e.delay(est.toSched[s.cluster], e.Cfg.UpdateBytes*float64(dg.total())), d.fire)
	}
}

// deliverPolicy carries a protocol message between schedulers, via the
// middleware queue when the policy uses one. The receiver pays a
// Message cost before the policy handler runs. With protocol faults
// armed the message rides the timeout/retry path; one that exhausts its
// budget is simply gone — the session it belonged to stalls, exactly
// the degradation the churn experiment measures.
//
//lint:hotpath every protocol message of every RMS model rides this path; TestPolicyMessageRoundTripAllocs pins it allocation-free once warm
func (e *Engine) deliverPolicy(from *Scheduler, m *Message) {
	if m.To < 0 || m.To >= len(e.Schedulers) {
		//lint:allow hotalloc panic path: fires once on a policy bug, never in a measured run
		panic(fmt.Sprintf("grid: policy message to invalid cluster %d", m.To))
	}
	e.Metrics.PolicyMsgs++
	dst := e.Schedulers[m.To]
	net := e.delay(from.toSched[m.To], e.Cfg.MsgBytes)
	d := e.acquire(opMsgArrive)
	d.sched, d.msg = dst, m
	if e.fs != nil {
		e.protoSend(from.node, dst, net, 0, d.fire, nil)
		return
	}
	e.route(net, d.fire)
}

// transferJob moves a job envelope to another cluster's scheduler; it
// re-enters the policy as OnJob with Hops incremented. Under faults the
// transfer retries like any protocol message, and one that exhausts its
// budget bounces back to the sender — a job envelope is never lost to
// the network.
//
//lint:hotpath job transfers scale with inter-cluster traffic; rms.TestDefaultRunEventsAndAllocs budgets them
func (e *Engine) transferJob(from *Scheduler, ctx *JobCtx, to int) {
	if !from.disown(ctx) {
		// A crash moved this job to another home while the sending
		// session was still in flight; the stale transfer dissolves.
		e.Metrics.StaleActions++
		return
	}
	if ctx.Hops >= maxJobHops {
		e.dropJob(ctx)
		return
	}
	e.Metrics.JobTransfers++
	ctx.Hops++
	dst := e.Schedulers[to]
	net := e.delay(from.toSched[to], e.Cfg.JobBytes)
	// The arrival re-owns the job at dst: a no-op without faults, so one
	// op serves both paths.
	d := e.acquire(opJobArrive)
	d.sched, d.ctx = dst, ctx
	if e.fs != nil {
		//lint:allow hotalloc abandon fires only after the retry budget is exhausted — fault path, not steady state
		abandon := func() { e.deliverToScheduler(from, ctx) }
		e.protoSend(from.node, dst, net, 0, d.fire, abandon)
		return
	}
	e.route(net, d.fire)
}

// route starts an inter-scheduler message on its network leg: through
// the middleware queue when the policy uses one, else straight to the
// receiver after net.
func (e *Engine) route(net sim.Time, deliver func()) {
	if e.mw != nil {
		e.mw.enqueue(net, deliver)
		return
	}
	e.K.After(net, deliver)
}

// sendJobToResource carries a dispatched job to its resource.
//
//lint:hotpath every dispatched job crosses this hop; TestEngineWarmStepZeroAlloc pins it allocation-free once warm
func (e *Engine) sendJobToResource(s *Scheduler, ctx *JobCtx, rid int) {
	r := e.Resources[rid]
	d := e.acquire(opDispatch)
	d.res, d.ctx = r, ctx
	e.K.After(e.delay(s.toRes[rid], e.Cfg.JobBytes), d.fire)
}

// bounce returns a job whose resource was down to its current cluster's
// scheduler for re-decision, or drops it after too many attempts.
//
//lint:hotpath re-decisions run at event rate under faults; TestEngineFaultPathZeroAlloc pins them allocation-free once warm
func (e *Engine) bounce(ctx *JobCtx) {
	if ctx.Attempts >= maxJobAttempts {
		e.dropJob(ctx)
		return
	}
	s := e.Schedulers[ctx.Origin]
	if e.fs != nil {
		e.deliverToScheduler(s, ctx)
		return
	}
	e.policy.OnJob(s, ctx)
}

// dropJob gives up on a job; it counts as lost. Dependents are
// released — a constraint on a lost job can never be satisfied.
//
//lint:hotpath terminal job accounting runs at event rate under faults; TestEngineFaultPathZeroAlloc pins it allocation-free once warm
func (e *Engine) dropJob(ctx *JobCtx) {
	e.Metrics.JobsLost++
	e.jobTerminated(ctx.Job.ID)
}

// middleware is the grid middleware of the S-I family: a single FIFO
// queue with infinite capacity and a small, finite service time that
// every inter-scheduler message passes through.
type middleware struct {
	eng *Engine
	cpu server
}

// enqueue routes a message through the middleware: network delay to the
// middleware, FIFO service, then delivery.
//
//lint:hotpath the S-I family funnels every message through this queue; TestPolicyMessageRoundTripAllocs pins it allocation-free once warm
func (mw *middleware) enqueue(netDelay sim.Time, deliver func()) {
	k := mw.eng.K
	half := netDelay / 2
	d := mw.eng.acquire(opMiddleware)
	d.fn, d.at = deliver, half
	k.Schedule(k.Now()+half, d.fire)
}

// arrive queues a message that reached the middleware for FIFO service;
// fwd is the network leg it still has to travel once served.
func (mw *middleware) arrive(deliver func(), fwd sim.Time) {
	mw.eng.Metrics.MiddlewareBusy += mw.eng.Cfg.Protocol.MiddlewareTime
	mw.cpu.submit(mw.eng.K.Now(), mw.eng.Cfg.Protocol.MiddlewareTime, work{fn: deliver, fwd: fwd})
}

// forward is the middleware's retire callback: a message whose service
// completed starts the second half of its network leg.
//
//lint:hotpath the S-I family's service-completion path; TestPolicyMessageRoundTripAllocs pins it allocation-free once warm
func (mw *middleware) forward() {
	w := mw.cpu.next()
	mw.eng.K.After(w.fwd, w.fn)
}
