package grid

import (
	"math"

	"rmscale/internal/sim"
	"rmscale/internal/workload"
)

// JobCtx is the envelope a job travels in while the RMS routes it.
type JobCtx struct {
	Job *workload.Job
	// Origin is the submission cluster.
	Origin int
	// Hops counts inter-scheduler transfers; the paper's models
	// transfer a job at most once, so policies place jobs locally once
	// Hops > 0.
	Hops int
	// Attempts counts dispatch attempts (bounces off crashed
	// resources re-enter scheduling with Attempts incremented).
	Attempts int
}

// resourceView is a scheduler's last known state of one resource.
type resourceView struct {
	load float64
	at   sim.Time
}

// Scheduler is one RMS decision maker coordinating a cluster. It is
// itself a server: every management operation costs CPU, queues FCFS,
// and accumulates into G.
type Scheduler struct {
	cluster int
	node    int
	netIdx  int // routing-matrix index of node (Engine.delay)
	eng     *Engine

	cpu server
	// views holds the believed state of the cluster's local resources,
	// dense by local index (Engine.localIdx maps a resource id to its
	// slot). Every decision scan walks this array; keeping it a flat
	// slice instead of a map removes hashing and per-entry allocation
	// from the scheduler's hottest loop.
	views []resourceView
	peers []int // neighborhood of remote clusters
	rand  *sim.Stream

	// Preallocated protocol scratch. permScratch/peerScratch back
	// RandomPeers (valid until its next call); oneRid backs the
	// single-resource OnStatus list of a direct status update.
	permScratch []int
	peerScratch []int
	oneRid      [1]int

	// Fault state (see faults.go). A crash bumps cpu.epoch, which
	// invalidates queued Exec work; owned tracks the jobs this scheduler
	// is responsible for so a crash can re-home them; parked holds jobs
	// waiting out this scheduler's downtime.
	down   bool
	owned  map[int]*JobCtx
	parked []*JobCtx

	// State lets a policy hang per-scheduler protocol state here
	// (reservations, received advertisements, open auctions, ...).
	State any
}

// Cluster returns the cluster this scheduler coordinates.
func (s *Scheduler) Cluster() int { return s.cluster }

// Node returns the scheduler's topology node.
func (s *Scheduler) Node() int { return s.node }

// Engine returns the owning engine.
func (s *Scheduler) Engine() *Engine { return s.eng }

// Now returns the simulated time.
func (s *Scheduler) Now() sim.Time { return s.eng.K.Now() }

// Rand returns this scheduler's deterministic random stream.
func (s *Scheduler) Rand() *sim.Stream { return s.rand }

// Peers returns the scheduler's neighborhood: the remote clusters it
// may probe, sized by the NeighborhoodSize enabler.
func (s *Scheduler) Peers() []int { return s.peers }

// RandomPeers returns up to n distinct random clusters from the
// neighborhood. The returned slice is backed by per-scheduler scratch
// and stays valid until the next RandomPeers call on this scheduler;
// every protocol consumes it immediately (probe fan-out loops), so the
// per-poll allocations are gone from the hot path.
func (s *Scheduler) RandomPeers(n int) []int {
	if n >= len(s.peers) {
		out := s.peerScratch[:len(s.peers)]
		copy(out, s.peers)
		return out
	}
	idx := s.rand.SampleInto(s.permScratch, len(s.peers), n)
	out := s.peerScratch[:n]
	for i, j := range idx {
		out[i] = s.peers[j]
	}
	return out
}

// LocalResources returns the resource ids of this scheduler's cluster.
func (s *Scheduler) LocalResources() []int {
	return s.eng.Map.ClusterResources[s.cluster]
}

// View returns the last known load of a local resource and the time the
// information was received. Resources outside the cluster (and local
// ones never heard from) read as load 0 at t=0.
func (s *Scheduler) View(rid int) (load float64, at sim.Time) {
	if s.eng.Map.ResourceCluster[rid] != s.cluster {
		return 0, 0
	}
	v := s.views[s.eng.localIdx[rid]]
	return v.load, v.at
}

// mergeView installs fresh status information. Status for a resource
// outside the cluster is dropped (the update machinery never routes
// any, so this only defends the public InjectView).
func (s *Scheduler) mergeView(rid int, load float64, at sim.Time) {
	if s.eng.Map.ResourceCluster[rid] != s.cluster {
		return
	}
	v := &s.views[s.eng.localIdx[rid]]
	if at >= v.at {
		v.load, v.at = load, at
	}
}

// mergeUpdate retires one direct status update: the view merge, then
// the policy's OnStatus for that single resource.
func (s *Scheduler) mergeUpdate(rid int, load float64, at sim.Time) {
	s.mergeView(rid, load, at)
	// oneRid is per-scheduler scratch; Exec retires work FCFS on one
	// CPU, so the slot is free again by the time the policy returns and
	// it never escapes the call.
	s.oneRid[0] = rid
	s.eng.policy.OnStatus(s, s.oneRid[:])
}

// mergeDigest retires one estimator digest: the scheduler's share of it
// merges into the view, then the policy sees the changed ids.
func (s *Scheduler) mergeDigest(dg *digest) {
	own, rids := dg.cluster(s.cluster)
	for i := range own {
		s.mergeView(own[i].rid, own[i].load, own[i].at)
	}
	s.eng.policy.OnStatus(s, rids)
}

// InjectView installs status information directly, bypassing the
// update machinery. It exists for policy tests and interactive
// exploration: production information flows arrive through updates and
// digests.
func (s *Scheduler) InjectView(rid int, load float64, at sim.Time) {
	s.mergeView(rid, load, at)
}

// bumpView optimistically increments the believed load after a local
// dispatch so back-to-back decisions do not herd onto one resource.
func (s *Scheduler) bumpView(rid int) {
	if s.eng.Map.ResourceCluster[rid] != s.cluster {
		return
	}
	s.views[s.eng.localIdx[rid]].load++
}

// LeastLoadedLocal returns the local resource with the lowest believed
// load. The boolean is false for an empty cluster (cannot happen in
// valid configurations, but policies stay defensive). The scan walks
// the dense view array in local-index order, which matches the
// LocalResources order the map-based implementation scanned, so the
// first-minimum choice is unchanged.
func (s *Scheduler) LeastLoadedLocal() (rid int, load float64, ok bool) {
	best, bestLoad := -1, math.Inf(1)
	for i := range s.views {
		if l := s.views[i].load; l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return s.LocalResources()[best], bestLoad, true
}

// AvgLocalLoad returns the mean believed load over the cluster.
func (s *Scheduler) AvgLocalLoad() float64 {
	if len(s.views) == 0 {
		return 0
	}
	sum := 0.0
	for i := range s.views {
		sum += s.views[i].load
	}
	return sum / float64(len(s.views))
}

// MaxLocalLoad returns the highest believed load over the cluster.
func (s *Scheduler) MaxLocalLoad() float64 {
	max := 0.0
	for i := range s.views {
		if l := s.views[i].load; l > max {
			max = l
		}
	}
	return max
}

// Utilization estimates the cluster's resource utilization status (RUS
// in the paper's S-I/R-I models): the fraction of resources with any
// believed load.
func (s *Scheduler) Utilization() float64 {
	if len(s.views) == 0 {
		return 0
	}
	busy := 0
	for i := range s.views {
		if s.views[i].load > 0 {
			busy++
		}
	}
	return float64(busy) / float64(len(s.views))
}

// Exec serializes cost units of work through the scheduler's CPU and
// runs fn when the work retires. The cost accrues to G immediately (it
// is committed work); queueing delay emerges from the busyUntil chain,
// which is what saturates a central scheduler at scale. Work queued
// before a crash dies with it (the epoch guard in server.runGuarded).
func (s *Scheduler) Exec(cost float64, fn func()) {
	if cost < 0 {
		//lint:allow hotalloc panic path: fires once on a caller bug, never in a measured run
		panic("grid: negative exec cost")
	}
	if s.down {
		// A dead scheduler retires no work; the message or decision
		// evaporates. Jobs survive through ownership tracking, not
		// through queued closures.
		return
	}
	busy := cost / s.eng.Cfg.Costs.SchedulerSpeed
	s.eng.Metrics.chargeScheduler(s.cluster, cost, busy)
	now := s.eng.K.Now()
	start := s.cpu.submit(now, busy, work{fn: fn})
	if d := float64(start - now); d > s.eng.Metrics.MaxSchedDelay {
		s.eng.Metrics.MaxSchedDelay = d
	}
}

// QueueDelay reports how far behind the scheduler's CPU currently is.
func (s *Scheduler) QueueDelay() sim.Time { return s.cpu.queueDelay(s.eng.K.Now()) }

// ExecDecision runs fn after charging one scheduling decision that
// scanned the given number of candidates.
func (s *Scheduler) ExecDecision(candidates int, fn func()) {
	c := s.eng.Cfg.Costs
	s.Exec(c.DecisionBase+c.DecisionPer*float64(candidates), fn)
}

// ExecMsg runs fn after charging one protocol message processing cost.
func (s *Scheduler) ExecMsg(fn func()) {
	s.Exec(s.eng.Cfg.Costs.Message, fn)
}

// Dispatch sends the job to a local resource, optimistically bumping the
// believed load. The job-control overhead lands in H at the resource.
func (s *Scheduler) Dispatch(ctx *JobCtx, rid int) {
	if !s.disown(ctx) {
		// The job failed over to another cluster while this scheduler's
		// session still referenced it; the stale dispatch dissolves.
		s.eng.Metrics.StaleActions++
		return
	}
	ctx.Attempts++
	s.bumpView(rid)
	s.eng.sendJobToResource(s, ctx, rid)
}

// DispatchLeastLoaded charges a full-cluster decision scan and sends the
// job to the believed least loaded local resource.
//
//lint:hotpath the decision hop of every job a policy places locally; engine/*/allocs_per_event pins it allocation-free once warm
func (s *Scheduler) DispatchLeastLoaded(ctx *JobCtx) {
	d := s.eng.acquire(opDecide)
	d.sched, d.ctx = s, ctx
	s.ExecDecision(len(s.LocalResources()), d.fire)
}

// decideLeastLoaded retires DispatchLeastLoaded's decision.
func (s *Scheduler) decideLeastLoaded(ctx *JobCtx) {
	rid, _, ok := s.LeastLoadedLocal()
	if !ok {
		s.disown(ctx)
		s.eng.dropJob(ctx)
		return
	}
	s.Dispatch(ctx, rid)
}

// SendPolicy sends a protocol message to another cluster's scheduler.
// The send consumes scheduler CPU (Message cost) before the message
// enters the network; the receive charges another Message cost before
// the policy sees it.
//
//lint:hotpath every protocol message of every RMS model starts here; the Message is its one allocation
func (s *Scheduler) SendPolicy(to int, kind int, payload any) {
	d := s.eng.acquire(opSend)
	d.sched = s
	//lint:allow hotalloc the Message IS the protocol message; one per send is the model's own unit of work
	d.msg = &Message{Kind: kind, From: s.cluster, To: to, Payload: payload}
	s.ExecMsg(d.fire)
}

// TransferJob moves the job to a remote cluster's scheduler; it arrives
// as a policy OnJob call with Hops incremented.
//
//lint:hotpath job transfers scale with inter-cluster traffic; engine/*/allocs_per_event pins them allocation-free once warm
func (s *Scheduler) TransferJob(ctx *JobCtx, to int) {
	d := s.eng.acquire(opTransfer)
	d.sched, d.ctx, d.rid = s, ctx, to
	s.ExecMsg(d.fire)
}
