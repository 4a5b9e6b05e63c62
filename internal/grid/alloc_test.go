package grid

import (
	"testing"
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

func runAllocProbe(t *testing.T, estimators int) (perEvent float64) {
	t.Helper()
	run := func() uint64 {
		cfg := testConfig()
		cfg.Spec.Estimators = estimators
		eng, err := New(cfg, &stubPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return eng.K.Processed()
	}
	events := run()
	if events == 0 {
		t.Fatal("engine processed no events")
	}
	allocs := testing.AllocsPerRun(2, func() { run() })
	return allocs / float64(events)
}

// The budgets are the measured 1.12 and 0.54 allocations per event plus
// headroom; a closure per hop costs these runs 1.33 and 1.19, so either
// budget catches that regression.
func TestEngineAllocBudgetDirectUpdates(t *testing.T) {
	const budget = 1.25
	if per := runAllocProbe(t, 0); per > budget {
		t.Errorf("direct-update engine run allocates %.2f/event, budget %.2f", per, budget)
	}
}

func TestEngineAllocBudgetEstimatorDigests(t *testing.T) {
	const budget = 0.6
	if per := runAllocProbe(t, 4); per > budget {
		t.Errorf("estimator-digest engine run allocates %.2f/event, budget %.2f", per, budget)
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
		for s.cpu.n > 0 {
			k.Step()
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
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			if !eng.K.Step() {
				t.Fatal("engine ran out of events")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm engine allocates %.2f times per %d events, want 0", allocs, steps)
	}
	if p.onJob == jobs || p.onStatus == statuses || eng.Metrics.JobsCompleted == done {
		t.Fatalf("window missed a hop: %d arrivals, %d status merges, %d completions",
			p.onJob-jobs, p.onStatus-statuses, eng.Metrics.JobsCompleted-done)
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
			for eng.K.Step() {
			}
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
