package sim

import (
	"testing"
)

// Allocation-regression tests: the kernel's hot paths are contractually
// allocation-free in steady state (DESIGN.md, "Kernel performance").
// These pin the contract with testing.AllocsPerRun so a regression
// fails `go test`, machine-independently, instead of waiting for
// someone to read a benchmark.

// windowEvents is the measured window of the tests below: one long Run
// after warm-up, on a MaxEvents budget of that many events, through
// the dispatch loop every engine run drives.
const windowEvents = 4096

// windowAllocs counts the allocations of windowEvents events fired as
// one budgeted Run. AllocsPerRun divides by the run count in integers,
// so a per-event measurement would hide an allocation made less often
// than once an event.
func windowAllocs(k *Kernel) float64 {
	return testing.AllocsPerRun(1, func() { runFor(k, windowEvents) })
}

// TestScheduleFireZeroAlloc: once the callback slots' free list is
// warm, schedule→fire cycles perform zero heap allocations, for a
// single self-rescheduling event and for a steady population of 512 of
// them in flight.
func TestScheduleFireZeroAlloc(t *testing.T) {
	for _, fan := range []int{1, 512} {
		k := NewKernel()
		for i := 0; i < fan; i++ {
			var fn func()
			fn = func() { k.After(1, fn) }
			k.Schedule(Time(i)/Time(fan), fn)
		}
		runFor(k, uint64(64+4*fan)) // warm the free list
		if allocs := windowAllocs(k); allocs != 0 {
			t.Errorf("%d event(s) in flight: %d schedule->fire cycles allocate %.0f times, want 0",
				fan, windowEvents, allocs)
		}
	}
}

// TestTickerRearmZeroAlloc: a ticker tick (fire + rearm) allocates
// nothing once warm — the rearm closure is built once at NewTicker.
func TestTickerRearmZeroAlloc(t *testing.T) {
	k := NewKernel()
	n := 0
	NewTicker(k, 1, func() { n++ })
	runFor(k, 64)
	if allocs := windowAllocs(k); allocs != 0 {
		t.Errorf("%d ticker rearm cycles allocate %.0f times, want 0", windowEvents, allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
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
	runFor(k, 64)
	if allocs := windowAllocs(k); allocs != 0 {
		t.Errorf("%d shared-lane ticker rearms allocate %.0f times, want 0", windowEvents, allocs)
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
	if allocs := windowAllocs(k); allocs != 0 {
		t.Errorf("%d events of the lanes mix allocate %.0f times, want 0", windowEvents, allocs)
	}
}
