package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// Differential test of the future event list: the kernel (an implicit
// 4-ary event heap whose callback slots recycle through a free list,
// FIFO lanes released in place from a second heap of lane heads,
// tickers sharing a lane per period) is driven alongside a trivially
// correct reference model — a flat slice popped by linear scan for the
// minimum (time, insertion order), in which every lane item and every
// tick is a plain scheduled event — through long seeded sequences of
// Schedule, lane Append, ticker creation and Run on a one-event budget.
// Any divergence in fire order, fire time, Processed() or the pending
// times fails. The sequence deliberately produces timestamp ties (seq
// tie-breaking, also across lanes and the heap). Eight lanes plus five
// ticker periods give the lane heap more than one level.
//
// diffKernel is shared with FuzzKernelOps.

// felRec mirrors one scheduled callback in the reference model. Records
// are appended at the moment the kernel takes the callback's sequence
// number, so record order is sequence order and the first record with
// the minimum time among live records is exactly the kernel's
// (time, seq) minimum.
type felRec struct {
	at    Time
	fired bool
}

// diffKernel drives a Kernel and the reference model in lockstep. Every
// callback checks, at the moment it fires, that the reference agrees it
// is next — so every Run is verified event by event.
type diffKernel struct {
	t       testing.TB
	k       *Kernel
	all     []*felRec
	live    []int // ids of live records, ascending: the reference's pending set
	fired   int
	lanes   []*diffLane
	tickers int // tickers started, each with one pending tick
}

type diffLane struct {
	l    *Lane
	last Time
}

// diffTicker mirrors one Ticker; cur is the record of its pending tick.
type diffTicker struct {
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

// retire drops a fired record from the live set.
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
	d.k.Schedule(at, func() {
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

// spinLane appends a lane item that, when it fires, appends itself to
// its own lane again, n times in all: at the current time unless a
// later item is already queued, so a lone spinner is a zero-delay cycle
// for the watchdog to catch.
func (d *diffKernel) spinLane(ln *diffLane, at Time, n int) {
	id := d.add(at)
	ln.l.Append(at, func() {
		d.fire(id)
		if n > 1 {
			d.spinLane(ln, max(ln.last, d.k.Now()), n-1)
		}
	})
	ln.last = at
}

// newTicker starts a Ticker with a positive period; its ticks rearm
// forever.
func (d *diffKernel) newTicker(period Time) {
	dt := &diffTicker{period: period, cur: d.add(d.k.Now() + period)}
	NewTicker(d.k, period, func() {
		d.fire(dt.cur)
		// The ticker rearms as soon as this callback returns.
		dt.cur = d.add(d.k.Now() + dt.period)
	})
	d.tickers++
}

// check compares the kernel's bookkeeping with the reference.
func (d *diffKernel) check(when string) {
	d.t.Helper()
	if got := d.k.Processed(); got != uint64(d.fired) {
		d.t.Fatalf("%s: Processed() = %d, reference fired %d", when, got, d.fired)
	}
	var want []Time
	for _, id := range d.live {
		want = append(want, d.all[id].at)
	}
	slices.Sort(want)
	if got := pendingTimes(d.k); !reflect.DeepEqual(got, want) {
		d.t.Fatalf("%s: pending times %v, reference %v", when, got, want)
	}
}

// drain fires everything but the tickers' pending ticks, which rearm
// forever. One more step then fires the earliest tick, which the
// online check verifies, or finds the kernel as empty as the reference.
func (d *diffKernel) drain() {
	d.t.Helper()
	for len(d.live) > d.tickers {
		if !step(d.k) {
			d.t.Fatalf("kernel fired nothing, reference expects record %d", d.next())
		}
	}
	if step(d.k) != (d.tickers > 0) {
		d.t.Fatalf("kernel and reference disagree on an empty future: %d tickers", d.tickers)
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
	d := newDiffKernel(t, 8)
	k := d.k
	// Two tickers share period 5 (one lane), the others run on lanes of
	// their own; tickers created later share these periods. Tickers
	// never stop, so the periods are long enough that ticks stay a small
	// share of what each step fires.
	periods := []Time{5, 12.5, 20, 30, 47.5}
	for _, p := range []Time{5, 12.5, 5, 20, 30, 47.5} {
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
		case x < 0.30:
			// Schedule; one third of the time at an existing pending
			// timestamp to force (time, seq) tie-breaking.
			at := k.Now() + rng.Float64()*10
			if rng.Float64() < 0.33 {
				if tie, ok := pendingAt(k.Now()); ok {
					at = tie
				}
			}
			d.schedule(at, nil)
		case x < 0.50:
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
		case x < 0.54:
			// A new ticker, up to eight, on a period others share.
			if d.tickers < 8 {
				d.newTicker(periods[rng.Intn(len(periods))])
			}
		default:
			if !step(k) && len(d.live) > 0 {
				t.Fatalf("op %d: kernel fired nothing but reference expects record %d", op, d.next())
			}
		}
		d.check(fmt.Sprintf("op %d", op))
	}
	d.drain()
	if err := k.Err(); err != nil {
		t.Fatalf("kernel unhealthy after drain: %v", err)
	}
}
