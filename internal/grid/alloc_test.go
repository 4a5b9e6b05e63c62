package grid

import (
	"testing"
)

// Allocation budget for the engine's protocol loops. The kernel itself
// is allocation-free in steady state (internal/sim's alloc tests); what
// remains per event here is the engine layer — deferred-delivery
// closures, job envelopes, policy hooks. This pins that remainder to a
// fixed per-event budget so map churn or per-message slice allocations
// creeping back into the scheduler/estimator/update paths fail the
// suite on any machine, without a benchmark diff.

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

func TestEngineAllocBudgetDirectUpdates(t *testing.T) {
	const budget = 3.0
	if per := runAllocProbe(t, 0); per > budget {
		t.Errorf("direct-update engine run allocates %.2f/event, budget %.2f", per, budget)
	}
}

func TestEngineAllocBudgetEstimatorDigests(t *testing.T) {
	const budget = 3.0
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
