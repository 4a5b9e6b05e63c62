package sim

import (
	"testing"
)

// Allocation-regression tests: the kernel's hot paths are contractually
// allocation-free in steady state (DESIGN.md, "Kernel performance").
// These pin the contract with testing.AllocsPerRun so a regression
// fails `go test`, machine-independently, instead of waiting for
// someone to read a benchmark.

// TestScheduleFireZeroAlloc: once the free list is warm, one
// schedule→fire cycle performs zero heap allocations.
func TestScheduleFireZeroAlloc(t *testing.T) {
	k := NewKernel()
	var fn func()
	fn = func() { k.After(1, fn) }
	k.After(1, fn)
	for k.Processed() < 64 { // warm the free list
		k.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { k.Step() }); allocs != 0 {
		t.Errorf("steady-state schedule->fire cycle allocates %.1f times, want 0", allocs)
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
	if allocs := testing.AllocsPerRun(200, func() { k.Step() }); allocs != 0 {
		t.Errorf("steady-state cancel/replace cycle allocates %.1f times, want 0", allocs)
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
	if allocs := testing.AllocsPerRun(200, func() { k.Step() }); allocs != 0 {
		t.Errorf("ticker rearm cycle allocates %.1f times, want 0", allocs)
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
	if allocs := testing.AllocsPerRun(200, func() { k.Step() }); allocs != 0 {
		t.Errorf("disabled-tracer event allocates %.1f times, want 0", allocs)
	}
	if tr.On() {
		t.Fatal("nil tracer reports On")
	}
}

// TestSharedTickerLaneRearmZeroAlloc: tickers of one period share a
// lane; once its ring is warm a tick (fire, promote the next head,
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
	if allocs := testing.AllocsPerRun(200, func() { k.Step() }); allocs != 0 {
		t.Errorf("shared-lane ticker rearm allocates %.1f times, want 0", allocs)
	}
	if len(k.tickLanes) != 1 {
		t.Fatalf("%d ticker lanes for one period, want 1", len(k.tickLanes))
	}
	if n == 0 {
		t.Fatal("tickers never fired")
	}
}
