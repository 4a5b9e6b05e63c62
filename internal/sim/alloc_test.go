package sim

import (
	"testing"
)

// Allocation-regression tests: the kernel's hot paths are contractually
// allocation-free in steady state (DESIGN.md, "Kernel performance").
// These pin the contract with testing.AllocsPerRun so a regression
// fails `go test`, machine-independently, instead of waiting for
// someone to read a benchmark.

// windowSteps is the measured window of the tests below: one long run
// of kernel steps after warm-up.
const windowSteps = 4096

// stepAllocs counts the allocations of windowSteps kernel steps taken
// as one run. AllocsPerRun divides by the run count in integers, so a
// per-step measurement would hide an allocation made less often than
// once a step.
func stepAllocs(k *Kernel) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < windowSteps; i++ {
			k.Step()
		}
	})
}

// TestScheduleFireZeroAlloc: once the free list is warm, schedule→fire
// cycles perform zero heap allocations, for a single self-rescheduling
// event and for a steady population of 512 of them in flight.
func TestScheduleFireZeroAlloc(t *testing.T) {
	for _, fan := range []int{1, 512} {
		k := NewKernel()
		for i := 0; i < fan; i++ {
			var fn func()
			fn = func() { k.After(1, fn) }
			k.Schedule(Time(i)/Time(fan), fn)
		}
		for k.Processed() < uint64(64+4*fan) { // warm the free list
			k.Step()
		}
		if allocs := stepAllocs(k); allocs != 0 {
			t.Errorf("%d event(s) in flight: %d schedule->fire cycles allocate %.0f times, want 0",
				fan, windowSteps, allocs)
		}
	}
}

// TestCancelRecycleZeroAlloc: the cancel-and-replace churn pattern
// (every protocol timeout does this) is also allocation-free once warm,
// including lazy-deletion bookkeeping.
func TestCancelRecycleZeroAlloc(t *testing.T) {
	k := NewKernel()
	var pending *Event
	var fn func()
	fn = func() {
		k.Cancel(pending)
		pending = k.After(2, func() {})
		k.After(1, fn)
	}
	k.After(1, fn)
	for k.Processed() < 256 {
		k.Step()
	}
	if allocs := stepAllocs(k); allocs != 0 {
		t.Errorf("%d steady-state cancel/replace cycles allocate %.0f times, want 0", windowSteps, allocs)
	}
}

// TestTickerRearmZeroAlloc: a ticker tick (fire + rearm) allocates
// nothing once warm — the rearm closure is built once at NewTicker.
func TestTickerRearmZeroAlloc(t *testing.T) {
	k := NewKernel()
	n := 0
	NewTicker(k, 1, func() { n++ })
	for k.Processed() < 64 {
		k.Step()
	}
	if allocs := stepAllocs(k); allocs != 0 {
		t.Errorf("%d ticker rearm cycles allocate %.0f times, want 0", windowSteps, allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}

// TestDisabledTracerZeroAlloc: an event whose callback traces through
// the guarded pattern (`if tr.On() { tr.Tracef(...) }`) allocates
// nothing when the tracer is nil. The unguarded call would box the
// variadic arguments before Tracef's nil check could run; On() exists
// precisely to keep disabled-tracer runs allocation-free.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	k := NewKernel()
	var tr *Tracer
	load := 0
	var fn func()
	fn = func() {
		load++
		if tr.On() {
			tr.Tracef("update", "resource %d load %d", 7, load)
		}
		k.After(1, fn)
	}
	k.After(1, fn)
	for k.Processed() < 64 {
		k.Step()
	}
	if allocs := stepAllocs(k); allocs != 0 {
		t.Errorf("%d disabled-tracer events allocate %.0f times, want 0", windowSteps, allocs)
	}
	if tr.On() {
		t.Fatal("nil tracer reports On")
	}
}

// TestSharedTickerLaneRearmZeroAlloc: tickers of one period share a
// lane; once its ring is warm a tick (fire, re-key the lane's slot,
// rearm at the tail) allocates nothing.
func TestSharedTickerLaneRearmZeroAlloc(t *testing.T) {
	k := NewKernel()
	n := 0
	for i := 0; i < 3; i++ {
		NewTicker(k, 2, func() { n++ })
		k.Run(k.Now() + 0.5) // stagger the phases along the shared lane
	}
	for k.Processed() < 64 {
		k.Step()
	}
	if allocs := stepAllocs(k); allocs != 0 {
		t.Errorf("%d shared-lane ticker rearms allocate %.0f times, want 0", windowSteps, allocs)
	}
	if len(k.tickLanes) != 1 {
		t.Fatalf("%d ticker lanes for one period, want 1", len(k.tickLanes))
	}
	if n == 0 {
		t.Fatal("tickers never fired")
	}
}

// TestKernelLanesZeroAlloc: the figure-sweep event mix of
// newLanesMix, where most events are lane items, allocates nothing
// once its rings are warm.
func TestKernelLanesZeroAlloc(t *testing.T) {
	k := newLanesMix()
	if allocs := stepAllocs(k); allocs != 0 {
		t.Errorf("%d steps of the lanes mix allocate %.0f times, want 0", windowSteps, allocs)
	}
}
