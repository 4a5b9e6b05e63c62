// Package sim provides a deterministic discrete-event simulation kernel.
//
// It replaces the Parsec simulation environment used by the paper: a
// single-threaded event loop with a two-heap future event list — an
// implicit 4-ary heap of plain events and a second one holding the
// heads of order-preserving FIFO lanes (lane.go) — a simulated clock,
// cancellable events, and named deterministic random number streams.
// Determinism is total: two runs with the same seed and the same
// schedule of calls produce identical event orders, because ties in
// event time are broken by a monotonically increasing sequence number,
// and the dispatch loop fires the smaller of the two heap roots under
// that one (time, sequence) order.
//
// The kernel is the cost center of the whole reproduction (every figure
// re-runs the grid simulation hundreds of times inside the annealing
// tuner), so its hot path is allocation-free in steady state: Event
// structs are recycled through a free list once they fire or their
// cancellation is collected, lane items fire without any Event, and
// both heaps are implicit heaps with no interface boxing (see fel.go
// and DESIGN.md, "Kernel performance").
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

// Event is a scheduled callback. The zero value is not useful; events
// are created through Kernel.Schedule or Kernel.After and may be
// cancelled through their handle.
//
// Handle lifetime: a handle is valid until its event fires (or, for a
// cancelled event, until the kernel collects it). The kernel recycles
// retired Event structs, so retaining a handle past that point and
// cancelling it later may cancel an unrelated future event — a model
// bug, just like scheduling in the past. Lane items never use an
// Event: they fire from the lane heap (lane.go). So tickers hold no
// Event either; a ticker keeps its tick's absolute lane position and
// drops it the moment the tick fires.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	id       int32 // index in fel.evs
	canceled bool
	inFEL    bool // currently linked into the future event list
}

// At reports the simulated time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Kernel is a discrete-event simulation engine. A Kernel is not safe for
// concurrent use; one simulation runs on one goroutine. Run many Kernels
// in parallel for parameter sweeps.
type Kernel struct {
	now       Time
	seq       uint64
	fel       fel     // future event list (fel.go)
	free      []int32 // ids of retired Events
	processed uint64
	stopped   bool

	// lanes lists every FIFO lane on this kernel (lane.go), indexed by
	// the id of the lane's slot in the lane heap. laneWaiting counts
	// their live items queued behind the heads; each head is counted by
	// its lane's slot instead. tickLanes shares one lane among all
	// tickers of a period.
	lanes       []*Lane
	laneWaiting int
	tickLanes   map[Time]*Lane

	// MaxEvents, when non-zero, bounds the number of events a single
	// Run may process; exceeding it stops the run and sets Overflowed.
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

// Pending returns the number of live (non-cancelled) events waiting to
// fire: the live plain events, one head per lane slot, and the lane
// items waiting behind the heads.
func (k *Kernel) Pending() int { return k.fel.live() + len(k.fel.lanes) + k.laneWaiting }

// Schedule arranges for fn to run at absolute simulated time at.
// Scheduling in the past, or at NaN, panics: it is always a model bug.
//
//lint:hotpath kernel/steady gates Schedule at zero allocations per event in steady state
func (k *Kernel) Schedule(at Time, fn func()) *Event {
	if !(at >= k.now) {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic("sim: schedule nil func")
	}
	e := k.newEvent(at, fn)
	k.fel.push(e)
	return e
}

// After arranges for fn to run d time units from now. Negative and NaN
// delays panic.
//
//lint:hotpath every periodic process reschedules through After; kernel/steady gates it at zero allocations
func (k *Kernel) After(d Time, fn func()) *Event {
	if !(d >= 0) {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.Schedule(k.now+d, fn)
}

// Cancel marks the event so it will not fire. Cancelling an event that
// already fired or was already cancelled is a no-op (but see the handle
// lifetime note on Event). The event stays in the future event list
// until it surfaces or a compaction sweep collects it; either way its
// struct returns to the free list.
//
//lint:hotpath kernel/cancel gates the cancel-heavy regime at zero allocations per event
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.inFEL {
		k.fel.dead++
		k.maybeCompact()
	}
}

// Stop makes the current Run return after the event being processed
// completes. It may be called from inside an event callback.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the earliest pending event. It returns false when the
// future event list is empty.
//
//lint:hotpath the dispatch loop body; every simulated event passes through it
func (k *Kernel) Step() bool {
	f := &k.fel
	for len(f.ev) > 0 || len(f.lanes) > 0 {
		if f.laneFirst() {
			s := f.lanes[0]
			k.now = s.at
			k.processed++
			k.noteProgress(s.at)
			k.lanes[s.id].release()()
			return true
		}
		e := f.pop()
		if e.canceled {
			f.dead--
			k.recycle(e)
			continue
		}
		k.now = e.at
		k.processed++
		k.noteProgress(e.at)
		e.fn()
		k.recycle(e)
		return true
	}
	return false
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
		k.stopped = true
	}
}

// Run executes events in time order until the future event list is
// empty, until the next event would fire strictly after the until time,
// until Stop is called, or until MaxEvents is exceeded. It returns the
// number of events executed during this call.
//
//lint:hotpath the bounded dispatch loop; kernel/steady and every engine bench run inside it
func (k *Kernel) Run(until Time) uint64 {
	k.stopped = false
	f := &k.fel
	var n uint64
	for (len(f.ev) > 0 || len(f.lanes) > 0) && !k.stopped {
		if k.MaxEvents != 0 && k.processed >= k.MaxEvents {
			k.Overflowed = true
			break
		}
		// The next item is the lane heap's root or the event heap's. It
		// leaves its heap only once the horizon and the watchdog let it
		// fire: a watchdog trip leaves it pending, so a diagnostic dump
		// (NextEventTimes) still shows the work the model was spinning
		// on, and it does not count as processed.
		lane := f.laneFirst()
		var e *Event
		var at Time
		if lane {
			at = f.lanes[0].at
		} else {
			e = f.evs[f.ev[0].id]
			if e.canceled {
				f.pop()
				f.dead--
				k.recycle(e)
				continue
			}
			at = e.at
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
			f.pop()
			e.fn()
			k.recycle(e)
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

// NextEventTimes returns the firing times of up to n earliest pending
// live events, lane items included, in order. It is a diagnostic
// accessor for post-mortem dumps and does not disturb the future event
// list.
func (k *Kernel) NextEventTimes(n int) []Time {
	times := make([]Time, 0, n)
	for _, s := range k.fel.ev {
		if !k.fel.evs[s.id].canceled {
			times = append(times, s.at)
		}
	}
	for _, l := range k.lanes {
		times = l.liveTimes(times)
	}
	sortTimes(times)
	if len(times) > n {
		times = times[:n]
	}
	return times
}

// sortTimes is a small insertion sort; diagnostic-path only, and it
// keeps the kernel free of a sort import on the hot path.
func sortTimes(ts []Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
