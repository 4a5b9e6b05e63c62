// Package sim provides a deterministic discrete-event simulation kernel.
//
// It replaces the Parsec simulation environment used by the paper: a
// single-threaded event loop with a two-heap future event list — an
// implicit 4-ary heap of plain events and a second one holding the
// heads of order-preserving FIFO lanes (lane.go) — a simulated clock,
// and named deterministic random number streams. A scheduled callback
// has no handle and cannot be withdrawn: the model guards work it no
// longer wants (the grid's crash epochs) instead of cancelling it.
// Determinism is total: two runs with the same seed and the same
// schedule of calls produce identical event orders, because ties in
// event time are broken by a monotonically increasing sequence number,
// and the dispatch loop fires the smaller of the two heap roots under
// that one (time, sequence) order.
//
// The kernel is the cost center of the whole reproduction (every figure
// re-runs the grid simulation hundreds of times inside the annealing
// tuner), so its hot path is allocation-free in steady state: a plain
// event's callback sits in a slot recycled through a free list once it
// fires, a lane item is three words in a reused ring, and both heaps
// are implicit heaps with no interface boxing (see fel.go and
// DESIGN.md, "Kernel performance").
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulated clock, in abstract "time units"
// (the paper's unit; e.g. T_CPU = 700 time units).
type Time = float64

// Infinity is a time later than any event the kernel will ever fire.
const Infinity Time = math.MaxFloat64

// Kernel is a discrete-event simulation engine. A Kernel is not safe for
// concurrent use; one simulation runs on one goroutine. Run many Kernels
// in parallel for parameter sweeps.
type Kernel struct {
	now       Time
	seq       uint64
	fel       fel // future event list (fel.go)
	processed uint64

	// lanes lists every FIFO lane on this kernel (lane.go), indexed by
	// the id of the lane's slot in the lane heap. tickLanes shares one
	// lane among all tickers of a period.
	lanes     []*Lane
	tickLanes map[Time]*Lane

	// MaxEvents, when non-zero, bounds Processed(): once that many
	// events have run, Run fires no more and sets Overflowed. The bound
	// counts every event since the kernel started, not those of one
	// Run, so raising it by n lets the next Run fire n more.
	MaxEvents  uint64
	Overflowed bool

	// StallEvents, when non-zero, is the no-progress watchdog: if that
	// many consecutive events execute without the clock advancing, the
	// run stops and Stalled is set. A model bug that schedules work in
	// a zero-delay cycle then fails immediately with a precise trigger
	// instead of spinning to MaxEvents.
	StallEvents uint64
	Stalled     bool

	stallAt  Time   // timestamp the current same-time streak runs at
	stallRun uint64 // events executed at stallAt so far
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Schedule arranges for fn to run at absolute simulated time at.
// Scheduling in the past, or at NaN, panics: it is always a model bug.
//
//lint:hotpath TestScheduleFireZeroAlloc pins Schedule at zero allocations per event in steady state
func (k *Kernel) Schedule(at Time, fn func()) {
	if !(at >= k.now) {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic("sim: schedule nil func")
	}
	k.fel.push(slot{at: at, seq: k.seq}, fn)
	k.seq++
}

// After arranges for fn to run d time units from now. Negative and NaN
// delays panic.
//
//lint:hotpath every periodic process reschedules through After; TestScheduleFireZeroAlloc pins it at zero allocations
func (k *Kernel) After(d Time, fn func()) {
	if !(d >= 0) {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.Schedule(k.now+d, fn)
}

// noteProgress feeds the no-progress watchdog: it counts consecutive
// events executed at the same timestamp and trips Stalled when the
// streak exceeds StallEvents.
func (k *Kernel) noteProgress(at Time) {
	if k.StallEvents == 0 {
		return
	}
	if at != k.stallAt || k.stallRun == 0 {
		k.stallAt = at
		k.stallRun = 1
		return
	}
	k.stallRun++
	if k.stallRun >= k.StallEvents {
		k.Stalled = true
	}
}

// Run executes events in time order until the future event list is
// empty, until the next event would fire strictly after the until time,
// until MaxEvents is reached, or until the watchdog trips. It returns
// the number of events executed during this call.
//
//lint:hotpath the dispatch loop; every engine run drives it, so rms.TestDefaultRunEventsAndAllocs measures it and the kernel's 0-alloc tests run it on a MaxEvents budget
func (k *Kernel) Run(until Time) uint64 {
	f := &k.fel
	var n uint64
	for len(f.ev) > 0 || len(f.lanes) > 0 {
		if k.MaxEvents != 0 && k.processed >= k.MaxEvents {
			k.Overflowed = true
			break
		}
		// The next item is the lane heap's root or the event heap's. It
		// leaves its heap only once the horizon and the watchdog let it
		// fire: a watchdog trip leaves it pending, and it does not count
		// as processed.
		lane := f.laneFirst()
		var at Time
		if lane {
			at = f.lanes[0].at
		} else {
			at = f.ev[0].at
		}
		if at > until {
			break
		}
		k.now = at
		k.noteProgress(at)
		if k.Stalled {
			break
		}
		k.processed++
		n++
		if lane {
			k.lanes[f.lanes[0].id].release()()
		} else {
			f.pop()()
		}
	}
	if k.Stalled {
		return n
	}
	if k.now < until && (len(f.ev) == 0 || f.ev[0].at > until) &&
		(len(f.lanes) == 0 || f.lanes[0].at > until) {
		// Advance the clock to the horizon so rate-style metrics
		// (work per unit time) are computed over the full window.
		k.now = until
	}
	return n
}

// Err reports why the kernel refused to make further progress: a
// tripped no-progress watchdog or an exceeded MaxEvents budget. It
// returns nil after a healthy run.
func (k *Kernel) Err() error {
	switch {
	case k.Stalled:
		return fmt.Errorf("sim: no progress: %d consecutive events at t=%v without the clock advancing (StallEvents=%d)",
			k.stallRun, k.stallAt, k.StallEvents)
	case k.Overflowed:
		return fmt.Errorf("sim: event budget exceeded: %d events processed (MaxEvents=%d)", k.processed, k.MaxEvents)
	}
	return nil
}
