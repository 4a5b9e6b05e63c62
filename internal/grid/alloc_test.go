package grid

import (
	"testing"

	"rmscale/internal/sim"
)

// Allocation budget for the engine's protocol loops. The kernel itself
// is allocation-free in steady state (internal/sim's alloc tests), and
// so is the engine's message fabric once its delivery-record free list
// is warm (delivery.go). What a whole run still pays per event is
// mostly the build — topology, routing, entities, the workload — plus
// estimator digests and policy state. The budgets pin that remainder
// so per-hop closures, map churn or per-message slices creeping back
// into the scheduler/estimator/update paths fail the suite on any
// machine, without a benchmark diff; the tests below pin the warm
// fabric itself at zero.
//
// The tests fire events through Run, the dispatch loop every engine run
// drives: a warm engine on a MaxEvents budget (runEvents), or a
// hand-fed one to a horizon past everything it holds (drain).

// runEvents fires the next n events through Run on a MaxEvents budget
// and fails unless all n fired.
func runEvents(t *testing.T, k *sim.Kernel, n int) {
	t.Helper()
	k.MaxEvents, k.Overflowed = k.Processed()+uint64(n), false
	if got := k.Run(sim.Infinity); got != uint64(n) {
		t.Fatalf("engine ran out of events after %d of %d", got, n)
	}
}

// drainSpan is far longer than any chain of hops these tests start;
// drain runs that far past now, so the clock stays finite for the next
// cycle.
const drainSpan = 1e6

// drain fires every pending event of an engine that Run never started.
func drain(k *sim.Kernel) { k.Run(k.Now() + drainSpan) }

// runAllocProbe returns the allocations of one build and run of the
// test config with the given estimator count.
func runAllocProbe(t *testing.T, estimators int) (perRun float64) {
	t.Helper()
	run := func() {
		cfg := testConfig()
		cfg.Spec.Estimators = estimators
		eng, err := New(cfg, &stubPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if eng.K.Processed() == 0 {
			t.Fatal("engine processed no events")
		}
	}
	return testing.AllocsPerRun(2, run)
}

// The budgets are per build and run: the measured 382 and 2044
// allocations plus about half again. A closure per hop added about 490
// and 6070 allocations to these runs when it was measured, and the
// all-pairs routing build they replaced cost about 2080 and 2800 more,
// so the budgets catch either coming back. Counted per event, the same
// runs allocate 0.55 and 0.27 times: the denominator moves with the
// engine's event structure (suppressed status ticks fire no event), so
// a per-event budget would loosen or tighten with it.
func TestEngineAllocBudgetDirectUpdates(t *testing.T) {
	const budget = 570
	if got := runAllocProbe(t, 0); got > budget {
		t.Errorf("direct-update engine build and run allocate %.0f times, budget %d", got, budget)
	}
}

func TestEngineAllocBudgetEstimatorDigests(t *testing.T) {
	const budget = 3050
	if got := runAllocProbe(t, 4); got > budget {
		t.Errorf("estimator-digest engine build and run allocate %.0f times, budget %d", got, budget)
	}
}

// TestSchedulerExecZeroAlloc: Exec's own bookkeeping — the busyUntil
// chain, the work FIFO and the completion lane — allocates nothing once
// warm. The work itself is a preallocated func, so whatever remains
// would be Exec's.
func TestSchedulerExecZeroAlloc(t *testing.T) {
	eng, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s, k := eng.Schedulers[0], eng.K
	ran := 0
	work := func() { ran++ }
	cycle := func() {
		// Two items queue behind each other, then both retire.
		s.Exec(1, work)
		s.Exec(1, work)
		drain(k)
		if s.cpu.n > 0 {
			t.Fatalf("%d work items still queued", s.cpu.n)
		}
	}
	for i := 0; i < 16; i++ { // grow the ring and warm the free list
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("steady-state Exec cycle allocates %.1f times, want 0", allocs)
	}
	if ran == 0 {
		t.Fatal("queued work never ran")
	}
}

// TestEngineWarmStepZeroAlloc: once its free lists, rings and lanes are
// warm, a direct-update engine steps through arrivals, decisions,
// dispatch hops, job starts and completions, and status updates and
// their merges without allocating.
func TestEngineWarmStepZeroAlloc(t *testing.T) {
	// AllocsPerRun divides by the run count in integers, so the window
	// is one long run: a stray allocation anywhere in it shows.
	const warm, steps = 2000, 500
	cfg := testConfig()
	// Arrivals run to the horizon, well past the measured window; Run
	// sets everything up, then stops at the warm-up budget.
	cfg.Workload.Horizon, cfg.Horizon = 6000, 6000
	cfg.MaxEvents = warm
	p := &stubPolicy{}
	eng, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.K.Processed() != warm {
		t.Fatalf("warm-up processed %d events, want %d", eng.K.Processed(), warm)
	}
	jobs, statuses, done := p.onJob, p.onStatus, eng.Metrics.JobsCompleted
	allocs := testing.AllocsPerRun(1, func() { runEvents(t, eng.K, steps) })
	if allocs != 0 {
		t.Errorf("warm engine allocates %.2f times per %d events, want 0", allocs, steps)
	}
	if p.onJob == jobs || p.onStatus == statuses || eng.Metrics.JobsCompleted == done {
		t.Fatalf("window missed a hop: %d arrivals, %d status merges, %d completions",
			p.onJob-jobs, p.onStatus-statuses, eng.Metrics.JobsCompleted-done)
	}
}

// TestEngineFaultPathZeroAlloc: with every resource crashed, each
// dispatched job bounces back to its scheduler for a re-decision until
// its attempts run out and it is dropped. Once that loop is warm, a
// long window of arrivals, re-decisions, bounces and drops allocates
// nothing. A per-event budget over a whole faulted run could not see
// one allocation per bounce: such a run pays 0.3 allocations per event
// for its build alone.
func TestEngineFaultPathZeroAlloc(t *testing.T) {
	const warm, faultWarm, steps = 2000, 500, 4000
	cfg := testConfig()
	// Arrivals run well past the window: AllocsPerRun runs it twice
	// (its warm-up, then the measured run), about 6000 time units.
	cfg.Workload.Horizon, cfg.Horizon = 30000, 30000
	cfg.Faults.RepairTime = 1e9 // nothing comes back inside the test
	cfg.MaxEvents = warm
	p := &stubPolicy{}
	eng, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for _, r := range eng.Resources {
		r.crash()
	}
	runEvents(t, eng.K, faultWarm) // warm the re-decision loop
	decisions, lost := p.onJob, eng.Metrics.JobsLost
	// One long run: AllocsPerRun divides in integers, so a stray
	// allocation anywhere in the window shows.
	if allocs := testing.AllocsPerRun(1, func() { runEvents(t, eng.K, steps) }); allocs != 0 {
		t.Errorf("faulted engine allocates %.0f times in %d events, want 0", allocs, steps)
	}
	// A dropped job was decided maxJobAttempts times, all but the first
	// after a bounce.
	dropped, decided := eng.Metrics.JobsLost-lost, p.onJob-decisions
	if dropped == 0 || decided < 2*dropped || eng.K.Now() >= cfg.Workload.Horizon {
		t.Fatalf("window missed the fault path: %d jobs dropped after %d decisions, arrivals ended at %v, now %v",
			dropped, decided, cfg.Workload.Horizon, eng.K.Now())
	}
}

// TestPolicyMessageRoundTripAllocs: SendPolicy, the network, the
// receiving Exec and OnMessage together allocate exactly the Message,
// with and without the middleware hop.
func TestPolicyMessageRoundTripAllocs(t *testing.T) {
	for _, mw := range []bool{false, true} {
		p := &stubPolicy{middleware: mw}
		eng, err := New(testConfig(), p)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip := func() {
			eng.Schedulers[0].SendPolicy(1, 0, nil)
			drain(eng.K)
		}
		for i := 0; i < 8; i++ { // warm the free list and the rings
			roundTrip()
		}
		before := p.onMessage
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 1 {
			t.Errorf("middleware=%v: round trip allocates %.2f times, want 1 (the Message)", mw, allocs)
		}
		if p.onMessage-before != 101 {
			t.Fatalf("middleware=%v: %d messages delivered, want 101", mw, p.onMessage-before)
		}
	}
}

// TestReleasedDeliveryPanics: a record returns to the free list as it
// fires; firing it again is a use after release and must fail loudly.
func TestReleasedDeliveryPanics(t *testing.T) {
	p := &stubPolicy{}
	eng, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	d := eng.acquire(opMsgHandle)
	d.sched, d.msg = eng.Schedulers[0], &Message{}
	fire := d.fire
	fire()
	if p.onMessage != 1 {
		t.Fatalf("record delivered %d messages, want 1", p.onMessage)
	}
	if d.op != opFree || len(eng.free) != 1 || eng.free[0] != d {
		t.Fatal("fired record not released to the free list")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("firing a released record did not panic")
		}
		if p.onMessage != 1 {
			t.Fatal("released record delivered again")
		}
	}()
	fire()
}
