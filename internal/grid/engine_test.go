package grid

import (
	"testing"

	"rmscale/internal/topology"
	"rmscale/internal/workload"
)

// stubPolicy is a minimal policy: everything local, hooks counted.
type stubPolicy struct {
	central    bool
	middleware bool
	onJob      int
	onStatus   int
	onTick     int
	onMessage  int
}

func (p *stubPolicy) Name() string         { return "STUB" }
func (p *stubPolicy) Central() bool        { return p.central }
func (p *stubPolicy) UsesMiddleware() bool { return p.middleware }
func (p *stubPolicy) Attach(*Engine)       {}

func (p *stubPolicy) OnJob(s *Scheduler, ctx *JobCtx) {
	p.onJob++
	s.DispatchLeastLoaded(ctx)
}
func (p *stubPolicy) OnMessage(*Scheduler, *Message) { p.onMessage++ }
func (p *stubPolicy) OnStatus(*Scheduler, []int)     { p.onStatus++ }
func (p *stubPolicy) OnTick(*Scheduler)              { p.onTick++ }

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Spec = topology.GridSpec{Clusters: 4, ClusterSize: 5}
	cfg.Workload.Clusters = 4
	cfg.Workload.ArrivalRate = 0.9 * 20 / 524.2
	cfg.Workload.Horizon = 1500
	cfg.Horizon = 1500
	cfg.Drain = 2000
	return cfg
}

func TestEngineRejectsNilPolicy(t *testing.T) {
	if _, err := New(testConfig(), nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.ServiceRate = 0
	if _, err := New(cfg, &stubPolicy{}); err == nil {
		t.Fatal("zero service rate accepted")
	}
	cfg = testConfig()
	cfg.Workload.Clusters = 99
	if _, err := New(cfg, &stubPolicy{}); err == nil {
		t.Fatal("workload/grid cluster mismatch accepted")
	}
	cfg = testConfig()
	cfg.TopoNodes = 3 // below spec minimum
	if _, err := New(cfg, &stubPolicy{}); err == nil {
		t.Fatal("undersized topology accepted")
	}
}

func TestCentralCollapse(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{central: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Clusters() != 1 {
		t.Fatalf("central collapse left %d clusters", e.Clusters())
	}
	if got := len(e.Resources); got != 20 {
		t.Fatalf("central collapse changed resource count: %d", got)
	}
	if e.Cfg.Workload.Clusters != 1 {
		t.Fatal("workload clusters not collapsed")
	}
}

func TestEngineHooksFire(t *testing.T) {
	p := &stubPolicy{}
	e, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if p.onJob == 0 || p.onStatus == 0 || p.onTick == 0 {
		t.Fatalf("hooks did not fire: job=%d status=%d tick=%d", p.onJob, p.onStatus, p.onTick)
	}
	if p.onJob < len(e.Jobs()) {
		t.Fatalf("OnJob fired %d times for %d jobs", p.onJob, len(e.Jobs()))
	}
}

func TestResourceFCFS(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Resources[0]
	mk := func(id int, runtime float64) *JobCtx {
		return &JobCtx{Job: &workload.Job{ID: id, Runtime: runtime, Benefit: 5, Partition: 1}}
	}
	r.enqueue(mk(1, 100))
	r.enqueue(mk(2, 50))
	r.enqueue(mk(3, 10))
	if r.Load() != 3 {
		t.Fatalf("load = %v, want 3", r.Load())
	}
	e.K.Run(99)
	if e.Metrics.JobsCompleted != 0 {
		t.Fatal("job finished early")
	}
	e.K.Run(100.5)
	if e.Metrics.JobsCompleted != 1 {
		t.Fatalf("first job should finish at 100, completed=%d", e.Metrics.JobsCompleted)
	}
	e.K.Run(151)
	if e.Metrics.JobsCompleted != 2 {
		t.Fatal("second job should finish at 150")
	}
	e.K.Run(161)
	if e.Metrics.JobsCompleted != 3 {
		t.Fatal("third job should finish at 160")
	}
	if r.Load() != 0 {
		t.Fatalf("drained resource load = %v", r.Load())
	}
}

func TestResourceServiceRateScalesExecution(t *testing.T) {
	cfg := testConfig()
	cfg.ServiceRate = 4
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Resources[0]
	r.enqueue(&JobCtx{Job: &workload.Job{ID: 1, Runtime: 100, Benefit: 5, Partition: 1}})
	e.K.Run(24.9)
	if e.Metrics.JobsCompleted != 0 {
		t.Fatal("job finished before runtime/mu")
	}
	e.K.Run(25.1)
	if e.Metrics.JobsCompleted != 1 {
		t.Fatal("job should finish at runtime/mu = 25")
	}
}

func TestDeadlineAccounting(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Resources[0]
	// Benefit 2, runtime 100: deadline = arrival + 200. Queue two so
	// the second finishes at 200 (just in time) and a third at 300
	// (late).
	mk := func(id int) *JobCtx {
		return &JobCtx{Job: &workload.Job{ID: id, Runtime: 100, Benefit: 2, Partition: 1}}
	}
	r.enqueue(mk(1))
	r.enqueue(mk(2))
	r.enqueue(mk(3))
	e.K.Run(400)
	m := e.Metrics
	if m.JobsCompleted != 3 {
		t.Fatalf("completed %d", m.JobsCompleted)
	}
	if m.JobsSucceeded != 2 {
		t.Fatalf("succeeded %d, want 2 (third job misses its deadline)", m.JobsSucceeded)
	}
	if m.UsefulWork != 200 {
		t.Fatalf("F = %v, want 200", m.UsefulWork)
	}
	if m.WastedWork != 100 {
		t.Fatalf("wasted = %v, want 100", m.WastedWork)
	}
	// Wasted work counts into H on top of per-job control cost.
	wantH := 100 + 3*e.Cfg.Costs.JobControl
	if m.RPOverhead != wantH {
		t.Fatalf("H = %v, want %v", m.RPOverhead, wantH)
	}
}

func TestUpdateSuppression(t *testing.T) {
	p := &stubPolicy{}
	e, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	m := e.Metrics
	if m.UpdatesSent == 0 || m.UpdatesSuppressed == 0 {
		t.Fatalf("updates=%d suppressed=%d; both must occur", m.UpdatesSent, m.UpdatesSuppressed)
	}
	// Idle resources dominate tick counts, so suppression should win.
	if m.UpdatesSuppressed < m.UpdatesSent {
		t.Fatalf("suppression (%d) should exceed sends (%d) at this load",
			m.UpdatesSuppressed, m.UpdatesSent)
	}
}

func TestSchedulerExecSerializes(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Schedulers[0]
	var done []float64
	s.Exec(4, func() { done = append(done, e.K.Now()) }) // 4 cost at speed 4 = 1 time
	s.Exec(8, func() { done = append(done, e.K.Now()) })
	e.K.Run(100)
	speed := e.Cfg.Costs.SchedulerSpeed
	if len(done) != 2 {
		t.Fatalf("exec callbacks: %d", len(done))
	}
	if done[0] != 4/speed {
		t.Fatalf("first op finished at %v, want %v", done[0], 4/speed)
	}
	if done[1] != 12/speed {
		t.Fatalf("second op must queue behind the first: %v, want %v", done[1], 12/speed)
	}
	if e.Metrics.RMSOverhead != 12 {
		t.Fatalf("G = %v, want 12", e.Metrics.RMSOverhead)
	}
	if s.QueueDelay() != 0 {
		t.Fatalf("queue delay after drain = %v", s.QueueDelay())
	}
}

func TestSchedulerExecPanicsOnNegativeCost(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative cost accepted")
		}
	}()
	e.Schedulers[0].Exec(-1, func() {})
}

func TestViewMergeAndBump(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Schedulers[0]
	rid := s.LocalResources()[0]
	if l, _ := s.View(rid); l != 0 {
		t.Fatalf("initial view %v", l)
	}
	s.mergeView(rid, 3, 10)
	if l, at := s.View(rid); l != 3 || at != 10 {
		t.Fatalf("view after merge: %v at %v", l, at)
	}
	// Stale merges are ignored.
	s.mergeView(rid, 9, 5)
	if l, _ := s.View(rid); l != 3 {
		t.Fatalf("stale merge applied: %v", l)
	}
	s.bumpView(rid)
	if l, _ := s.View(rid); l != 4 {
		t.Fatalf("bump failed: %v", l)
	}
}

func TestLeastLoadedAndAggregates(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Schedulers[0]
	rs := s.LocalResources()
	for i, rid := range rs {
		s.mergeView(rid, float64(i+1), 1)
	}
	rid, load, ok := s.LeastLoadedLocal()
	if !ok || rid != rs[0] || load != 1 {
		t.Fatalf("least loaded = %d/%v/%v", rid, load, ok)
	}
	wantAvg := (1.0 + 2 + 3 + 4 + 5) / 5
	if got := s.AvgLocalLoad(); got != wantAvg {
		t.Fatalf("avg = %v, want %v", got, wantAvg)
	}
	if got := s.MaxLocalLoad(); got != 5 {
		t.Fatalf("max = %v", got)
	}
	if got := s.Utilization(); got != 1 {
		t.Fatalf("utilization = %v, want 1 (all loaded)", got)
	}
}

func TestRandomPeers(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Schedulers[0]
	peers := s.RandomPeers(2)
	if len(peers) != 2 {
		t.Fatalf("RandomPeers(2) = %v", peers)
	}
	for _, p := range peers {
		if p == s.Cluster() {
			t.Fatal("peer includes self")
		}
	}
	all := s.RandomPeers(99)
	if len(all) != len(s.Peers()) {
		t.Fatalf("oversized request should return whole neighborhood: %v", all)
	}
}

func TestNeighborhoodSizeBoundsPeers(t *testing.T) {
	cfg := testConfig()
	cfg.Enablers.NeighborhoodSize = 2
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Schedulers {
		if len(s.Peers()) != 2 {
			t.Fatalf("neighborhood size ignored: %d peers", len(s.Peers()))
		}
	}
}

func TestStealQueuedJob(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.StealQueuedJob(0); got != nil {
		t.Fatal("steal from empty cluster returned a job")
	}
	r := e.Resources[e.Map.ClusterResources[0][0]]
	mk := func(id int) *JobCtx {
		return &JobCtx{Job: &workload.Job{ID: id, Runtime: 100, Benefit: 5, Partition: 1}}
	}
	r.enqueue(mk(1)) // running
	r.enqueue(mk(2)) // queued
	r.enqueue(mk(3)) // queued, most recent
	got := e.StealQueuedJob(0)
	if got == nil || got.Job.ID != 3 {
		t.Fatalf("steal returned %+v, want job 3", got)
	}
	if n := len(r.queue); n != 1 {
		t.Fatalf("queued after steal = %d, want 1", n)
	}
	// The running job must not be stealable.
	e.StealQueuedJob(0)
	if e.StealQueuedJob(0) != nil {
		t.Fatal("stole the running job")
	}
}

func TestFailureInjection(t *testing.T) {
	cfg := testConfig()
	cfg.Faults.ResourceMTBF = 300
	cfg.Faults.RepairTime = 100
	p := &stubPolicy{}
	e, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	m := e.Metrics
	if m.JobsCompleted+m.JobsLost+e.Unfinished() != m.JobsArrived {
		t.Fatalf("conservation broken under failures: %d+%d+%d != %d",
			m.JobsCompleted, m.JobsLost, e.Unfinished(), m.JobsArrived)
	}
	if m.JobsLost == 0 {
		t.Fatal("aggressive MTBF produced no losses")
	}
}

func TestUpdateLoss(t *testing.T) {
	cfg := testConfig()
	cfg.Faults.UpdateLossProb = 0.5
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Metrics.UpdatesLost == 0 {
		t.Fatal("50% loss dropped nothing")
	}
	frac := float64(e.Metrics.UpdatesLost) /
		float64(e.Metrics.UpdatesLost+e.Metrics.UpdatesSent)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("loss fraction %v far from 0.5", frac)
	}
}

func TestEstimatorLayerCarriesUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.Spec.Estimators = 3
	p := &stubPolicy{}
	e, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Estimators) != 3 {
		t.Fatalf("estimators = %d", len(e.Estimators))
	}
	e.Run()
	if e.Metrics.DigestsSent == 0 {
		t.Fatal("estimator layer sent no digests")
	}
	// Digest broadcast: every digest goes to every scheduler.
	if e.Metrics.DigestsSent%e.Clusters() != 0 {
		t.Fatalf("digests (%d) not a multiple of schedulers (%d)",
			e.Metrics.DigestsSent, e.Clusters())
	}
	if p.onStatus == 0 {
		t.Fatal("digests never reached the policy")
	}
}

func TestDelayModel(t *testing.T) {
	cfg := testConfig()
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s0 := e.Schedulers[0]
	if e.delay(s0.toSched[0], 10) != 0 {
		t.Fatal("self delay must be 0")
	}
	rt := s0.toSched[1]
	d1 := e.delay(rt, 1)
	if d1 <= 0 || d1 != rt.Latency+1/rt.Bandwidth {
		t.Fatalf("delay = %v over route %+v", d1, rt)
	}
	// Bigger payloads take longer (bandwidth term).
	if d2 := e.delay(rt, 1000); d2 <= d1 {
		t.Fatalf("payload size ignored: %v <= %v", d2, d1)
	}
	// The link delay scale enabler multiplies latency.
	e2cfg := cfg
	e2cfg.Enablers.LinkDelayScale = 3
	e2, err := New(e2cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if d3 := e2.delay(e2.Schedulers[0].toSched[1], 1); d3 != 3*rt.Latency+1/rt.Bandwidth {
		t.Fatalf("link delay scale ignored: %v, want %v", d3, 3*rt.Latency+1/rt.Bandwidth)
	}
}

func TestMiddlewareQueueing(t *testing.T) {
	cfg := testConfig()
	p := &stubPolicy{middleware: true}
	e, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if e.mw == nil {
		t.Fatal("middleware not created")
	}
	// Two messages back to back: the second is delayed by service.
	var arrivals []float64
	e.mw.enqueue(0, func() { arrivals = append(arrivals, e.K.Now()) })
	e.mw.enqueue(0, func() { arrivals = append(arrivals, e.K.Now()) })
	e.K.Run(100)
	if len(arrivals) != 2 {
		t.Fatalf("deliveries = %d", len(arrivals))
	}
	st := cfg.Protocol.MiddlewareTime
	if arrivals[0] != st || arrivals[1] != 2*st {
		t.Fatalf("middleware did not serialize: %v (service %v)", arrivals, st)
	}
	if e.Metrics.MiddlewareBusy != 2*st {
		t.Fatalf("middleware busy = %v", e.Metrics.MiddlewareBusy)
	}
}

func TestSubstrateReuse(t *testing.T) {
	cfg := testConfig()
	sub, err := BuildSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewWith(cfg, &stubPolicy{}, sub)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewWith(cfg, &stubPolicy{}, sub)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Graph != e2.Graph {
		t.Fatal("substrate not shared")
	}
	a := e1.Run()
	b := e2.Run()
	if a != b {
		t.Fatalf("shared substrate broke determinism: %v vs %v", a, b)
	}
	// A mismatched substrate must be rejected.
	other := cfg
	other.Spec.Clusters = 5
	other.Workload.Clusters = 5
	if _, err := NewWith(other, &stubPolicy{}, sub); err == nil {
		t.Fatal("mismatched substrate accepted")
	}
}

func TestSubstrateCache(t *testing.T) {
	cache := NewSubstrateCache()
	cfg := testConfig()
	s1, err := cache.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("cache missed on identical config")
	}
	cfg.Seed = 99
	s3, err := cache.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("cache returned wrong substrate for different seed")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache size = %d", cache.Len())
	}
}

func TestMeanServiceTime(t *testing.T) {
	cfg := testConfig()
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	mst := e.MeanServiceTime()
	if mst < 500 || mst > 550 {
		t.Fatalf("mean service time = %v, want ~524", mst)
	}
	cfg.ServiceRate = 2
	e2, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.MeanServiceTime(); got != mst/2 {
		t.Fatalf("service rate not applied: %v", got)
	}
	if e.ERT(100) != 100 || e2.ERT(100) != 50 {
		t.Fatal("ERT wrong")
	}
}

func TestBounceGivesUpEventually(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &JobCtx{
		Job:      &workload.Job{ID: 1, Runtime: 10, Benefit: 5, Partition: 1},
		Attempts: maxJobAttempts,
	}
	e.bounce(ctx)
	if e.Metrics.JobsLost != 1 {
		t.Fatal("exhausted bounce did not drop the job")
	}
}

func TestTransferHopLimit(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &JobCtx{
		Job:  &workload.Job{ID: 1, Runtime: 10, Benefit: 5, Partition: 1},
		Hops: maxJobHops,
	}
	e.transferJob(e.Schedulers[0], ctx, 1)
	if e.Metrics.JobsLost != 1 {
		t.Fatal("hop-limited transfer not dropped")
	}
	if e.Metrics.JobTransfers != 0 {
		t.Fatal("dropped transfer still counted")
	}
}
