package sim

import (
	"fmt"
	"testing"
)

// Differential test of the future event list: the kernel (implicit
// 4-ary heap, lazy deletion, free-list recycling, FIFO lanes, tickers
// sharing a lane per period) is driven alongside a trivially correct
// reference model — a flat slice popped by linear scan for the minimum
// (time, insertion order), in which every lane item and every tick is a
// plain scheduled event — through long seeded sequences of Schedule,
// Cancel, Reschedule, lane Append, ticker Stop/Reset and Step. Any
// divergence in fire order, fire time, Processed(), Pending() or
// NextEventTimes() fails. The sequence deliberately produces timestamp
// ties (seq tie-breaking, also across lanes and the heap),
// cancellations of the event the reference says fires next
// (cancel-at-head, including a ticker's tick at the head of its lane),
// and cancel-then-reschedule churn deep enough to cross the
// lazy-deletion compaction threshold.
//
// diffKernel is shared with FuzzKernelOps.

// felRec mirrors one scheduled callback in the reference model. Records
// are appended at the moment the kernel takes the callback's sequence
// number, so record order is sequence order and the first record with
// the minimum time among live records is exactly the kernel's
// (time, seq) minimum.
type felRec struct {
	ev       *Event // nil for lane items and ticks
	at       Time
	canceled bool
	fired    bool
}

// diffKernel drives a Kernel and the reference model in lockstep. Every
// callback checks, at the moment it fires, that the reference agrees it
// is next — so Step, Run and RunAll are all verified event by event.
type diffKernel struct {
	t       testing.TB
	k       *Kernel
	all     []*felRec
	live    []int // ids of live records, ascending: the reference's pending set
	fired   int
	lanes   []*diffLane
	tickers []*diffTicker
}

type diffLane struct {
	l    *Lane
	last Time
}

// diffTicker mirrors one Ticker; cur is the record of its pending tick,
// -1 while stopped.
type diffTicker struct {
	tk     *Ticker
	period Time
	cur    int
}

func newDiffKernel(t testing.TB, lanes int) *diffKernel {
	d := &diffKernel{t: t, k: NewKernel()}
	for i := 0; i < lanes; i++ {
		d.lanes = append(d.lanes, &diffLane{l: NewLane(d.k)})
	}
	return d
}

// add appends a reference record; the caller hands the kernel the
// matching callback before anything else takes a sequence number.
func (d *diffKernel) add(at Time) int {
	id := len(d.all)
	d.all = append(d.all, &felRec{at: at})
	d.live = append(d.live, id)
	return id
}

// retire drops a fired or cancelled record from the live set.
func (d *diffKernel) retire(id int) {
	for i, x := range d.live {
		if x == id {
			d.live = append(d.live[:i], d.live[i+1:]...)
			return
		}
	}
}

// next returns the id of the record the reference model says fires
// next — the earliest live time, ties to the lowest id — or -1.
func (d *diffKernel) next() int {
	best := -1
	for _, id := range d.live {
		if best == -1 || d.all[id].at < d.all[best].at {
			best = id
		}
	}
	return best
}

// fire is the online check every callback runs.
func (d *diffKernel) fire(id int) {
	d.t.Helper()
	if want := d.next(); want != id {
		if want == -1 {
			d.t.Fatalf("fired record %d (t=%v), reference has nothing live", id, d.all[id].at)
		}
		d.t.Fatalf("fired record %d (t=%v), reference expects %d (t=%v)", id, d.all[id].at, want, d.all[want].at)
	}
	r := d.all[id]
	if now := d.k.Now(); now != r.at {
		d.t.Fatalf("record %d fired at t=%v, scheduled for %v", id, now, r.at)
	}
	r.fired = true
	d.fired++
	d.retire(id)
}

// schedule schedules a plain event; then, when non-nil, runs after the
// check inside its callback.
func (d *diffKernel) schedule(at Time, then func()) {
	id := d.add(at)
	d.all[id].ev = d.k.Schedule(at, func() {
		d.fire(id)
		if then != nil {
			then()
		}
	})
}

func (d *diffKernel) appendLane(ln *diffLane, at Time) {
	id := d.add(at)
	ln.l.Append(at, func() { d.fire(id) })
	ln.last = at
}

// cancel cancels a live plain event; lane items and ticks have no
// handle, and a spent handle's lifetime is over.
func (d *diffKernel) cancel(i int) {
	r := d.all[i]
	if r.ev == nil || r.fired || r.canceled {
		return
	}
	r.canceled = true
	d.retire(i)
	d.k.Cancel(r.ev)
}

func (d *diffKernel) newTicker(period Time) *diffTicker {
	dt := &diffTicker{period: period, cur: -1}
	if period > 0 {
		dt.cur = d.add(d.k.Now() + period)
	}
	dt.tk = NewTicker(d.k, period, func() {
		d.fire(dt.cur)
		// The ticker rearms as soon as this callback returns.
		dt.cur = d.add(d.k.Now() + dt.period)
	})
	d.tickers = append(d.tickers, dt)
	return dt
}

func (d *diffKernel) stopTicker(dt *diffTicker) {
	dt.tk.Stop()
	if dt.cur >= 0 {
		d.all[dt.cur].canceled = true
		d.retire(dt.cur)
		dt.cur = -1
	}
}

func (d *diffKernel) resetTicker(dt *diffTicker, period Time) {
	d.stopTicker(dt)
	dt.period = period
	if period > 0 {
		dt.cur = d.add(d.k.Now() + period)
	}
	dt.tk.Reset(period)
}

// check compares the kernel's bookkeeping with the reference.
func (d *diffKernel) check(when string) {
	d.t.Helper()
	if got, want := d.k.Pending(), len(d.live); got != want {
		d.t.Fatalf("%s: Pending() = %d, reference has %d live", when, got, want)
	}
	if got := d.k.Processed(); got != uint64(d.fired) {
		d.t.Fatalf("%s: Processed() = %d, reference fired %d", when, got, d.fired)
	}
	const n = 6
	var want []Time
	for _, id := range d.live {
		want = append(want, d.all[id].at)
	}
	sortTimes(want)
	if len(want) > n {
		want = want[:n]
	}
	got := d.k.NextEventTimes(n)
	if len(got) != len(want) {
		d.t.Fatalf("%s: NextEventTimes = %v, reference %v", when, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			d.t.Fatalf("%s: NextEventTimes = %v, reference %v", when, got, want)
		}
	}
}

// drain stops every ticker and fires what is left; the kernel must
// end empty exactly when the reference does.
func (d *diffKernel) drain() {
	d.t.Helper()
	for _, dt := range d.tickers {
		d.stopTicker(dt)
	}
	for len(d.live) > 0 {
		if !d.k.Step() {
			d.t.Fatalf("kernel empty, reference expects record %d", d.next())
		}
	}
	if d.k.Step() {
		d.t.Fatal("kernel fired an event the reference does not have")
	}
	d.check("after drain")
}

func TestFELDifferentialAgainstSortedSlice(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFELDifferential(t, seed)
		})
	}
}

func runFELDifferential(t *testing.T, seed int64) {
	rng := NewSource(seed).Stream("felprop")
	d := newDiffKernel(t, 3)
	k := d.k
	// Two tickers share period 1 (one lane), one runs at 2.5; Reset
	// moves them between lanes.
	periods := []Time{1, 2.5, 4}
	for _, p := range []Time{1, 2.5, 1} {
		d.newTicker(p)
	}
	// pendingAt picks the time of a random live record at or after
	// floor, to force ties; ok is false when the pick fails.
	pendingAt := func(floor Time) (Time, bool) {
		if len(d.live) == 0 {
			return 0, false
		}
		at := d.all[d.live[rng.Intn(len(d.live))]].at
		return at, at >= floor
	}

	const ops = 6000
	for op := 0; op < ops; op++ {
		switch x := rng.Float64(); {
		case x < 0.25:
			// Schedule; one third of the time at an existing pending
			// timestamp to force (time, seq) tie-breaking.
			at := k.Now() + rng.Float64()*10
			if rng.Float64() < 0.33 {
				if tie, ok := pendingAt(k.Now()); ok {
					at = tie
				}
			}
			d.schedule(at, nil)
		case x < 0.40:
			// Lane append, never behind the lane's newest item: a third
			// of the time at exactly that time, a third at a pending
			// time elsewhere, otherwise a fresh later time.
			ln := d.lanes[rng.Intn(len(d.lanes))]
			floor := ln.last
			if floor < k.Now() {
				floor = k.Now()
			}
			at := floor + rng.Float64()*10
			switch y := rng.Float64(); {
			case y < 0.33:
				at = floor
			case y < 0.66:
				if tie, ok := pendingAt(floor); ok {
					at = tie
				}
			}
			d.appendLane(ln, at)
		case x < 0.55 && len(d.all) > 0:
			// Cancel: half the time a uniformly random handle, half the
			// time exactly the event due to fire next — a ticker's tick
			// at the head of its lane is stopped instead.
			i := rng.Intn(len(d.all))
			if rng.Float64() < 0.5 {
				if head := d.next(); head != -1 {
					i = head
				}
			}
			for _, dt := range d.tickers {
				if dt.cur == i {
					d.stopTicker(dt)
				}
			}
			d.cancel(i)
		case x < 0.63 && len(d.all) > 0:
			// Reschedule: cancel a live event and schedule a replacement
			// at a fresh future time.
			i := rng.Intn(len(d.all))
			if r := d.all[i]; r.ev != nil && !r.fired && !r.canceled {
				d.cancel(i)
				d.schedule(k.Now()+rng.Float64()*10, nil)
			}
		case x < 0.67:
			// Ticker churn: stop, restart at another period, or reset
			// to the period it already has.
			dt := d.tickers[rng.Intn(len(d.tickers))]
			switch y := rng.Float64(); {
			case y < 0.3:
				d.stopTicker(dt)
			case y < 0.8:
				d.resetTicker(dt, periods[rng.Intn(len(periods))])
			default:
				d.resetTicker(dt, dt.period)
			}
		default:
			if !k.Step() && len(d.live) > 0 {
				t.Fatalf("op %d: kernel empty but reference expects record %d", op, d.next())
			}
		}
		d.check(fmt.Sprintf("op %d", op))
	}
	d.drain()
	if err := k.Err(); err != nil {
		t.Fatalf("kernel unhealthy after drain: %v", err)
	}
}
