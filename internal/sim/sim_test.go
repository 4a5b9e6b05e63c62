package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The kernel keeps no count of its pending items and no way to peek at
// them, since no production caller reads either, and Run is its only
// dispatch loop. Tests read the future event list and fire single
// items through the helpers below.

// pendingTimes returns the firing time of every pending item, plain
// events and lane items alike, in time order.
func pendingTimes(k *Kernel) []Time {
	var ts []Time
	for _, s := range k.fel.ev {
		ts = append(ts, s.at)
	}
	for _, l := range k.lanes {
		mask := uint64(len(l.buf) - 1)
		for p := l.head; p != l.tail; p++ {
			ts = append(ts, l.buf[p&mask].at)
		}
	}
	slices.Sort(ts)
	return ts
}

// pending returns the number of items waiting to fire.
func pending(k *Kernel) int { return len(pendingTimes(k)) }

// step fires the earliest pending item the way every engine run fires
// events: through Run, on a one-event MaxEvents budget and with the
// horizon at the item's time, so the clock stops where it fired. It
// reports whether an item fired; a tripped watchdog fires nothing.
func step(k *Kernel) bool {
	f := &k.fel
	if len(f.ev) == 0 && len(f.lanes) == 0 {
		return false
	}
	var at Time
	if f.laneFirst() {
		at = f.lanes[0].at
	} else {
		at = f.ev[0].at
	}
	budget, over := k.MaxEvents, k.Overflowed
	k.MaxEvents = k.processed + 1
	n := k.Run(at)
	k.MaxEvents, k.Overflowed = budget, over
	return n == 1
}

// runFor fires the next n events through Run on a MaxEvents budget,
// for kernels whose future event list never runs dry.
func runFor(k *Kernel, n uint64) {
	k.MaxEvents = k.processed + n
	k.Run(Infinity)
	k.MaxEvents, k.Overflowed = 0, false
}

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Processed() != 0 {
		t.Fatalf("Processed() = %v, want 0", k.Processed())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	k := NewKernel()
	var got []float64
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	n := k.Run(10)
	if n != 5 {
		t.Fatalf("Run executed %d events, want 5", n)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(7, func() { got = append(got, i) })
	}
	k.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of FIFO order at %d: %v", i, got[:i+1])
		}
	}
}

func TestAfterUsesRelativeDelay(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	k.Schedule(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	k.Run(100)
	if at != 15 {
		t.Fatalf("After(5) from t=10 fired at %v, want 15", at)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(50, func() { fired = true })
	k.Run(49)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 49 {
		t.Fatalf("clock = %v, want horizon 49", k.Now())
	}
	k.Run(51)
	if !fired {
		t.Fatal("event within extended horizon did not fire")
	}
}

func TestClockAdvancesToHorizonWhenIdle(t *testing.T) {
	k := NewKernel()
	k.Run(1000)
	if k.Now() != 1000 {
		t.Fatalf("idle run left clock at %v, want 1000", k.Now())
	}
}

// Run advances the clock to its horizon only forward, and never over a
// live event still pending inside the window. A Run halted by its
// MaxEvents budget leaves the clock at the halting event until a later
// Run has executed what remains.
func TestAdvanceTo(t *testing.T) {
	k := NewKernel()
	k.Run(7)
	if k.Now() != 7 {
		t.Fatalf("Now = %v after Run(7), want 7", k.Now())
	}
	if n := k.Run(6); n != 0 || k.Now() != 7 {
		t.Fatalf("Run(6) after Run(7): %d events, clock %v; want 0 events, clock 7", n, k.Now())
	}
	k.Schedule(10, func() {})
	k.Schedule(12, func() {})
	k.MaxEvents = 1
	if n := k.Run(20); n != 1 || k.Now() != 10 || !k.Overflowed {
		t.Fatalf("budgeted Run(20): %d events, clock %v, overflowed %v; want 1 event, clock 10, an overflow",
			n, k.Now(), k.Overflowed)
	}
	k.MaxEvents, k.Overflowed = 0, false
	if n := k.Run(20); n != 1 || k.Now() != 20 {
		t.Fatalf("resumed Run(20): %d events, clock %v; want 1 event, clock 20", n, k.Now())
	}
}

// TestWindowedRunMatchesSerialRun pins that Run is resumable: slicing
// a run into successive Run windows, with horizons that land on event
// times, executes exactly the events, in exactly the order, of one Run
// to the final horizon, and leaves the clock in the same place.
func TestWindowedRunMatchesSerialRun(t *testing.T) {
	prop := func(seed int64, windowsRaw uint8) bool {
		build := func(k *Kernel, log *[]int) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				id := i
				at := Time(rng.Intn(64)) / 2
				follow := Time(rng.Intn(8)) / 2
				k.Schedule(at, func() {
					*log = append(*log, id)
					if follow > 0 {
						k.After(follow, func() { *log = append(*log, -id) })
					}
				})
			}
		}
		var serialLog []int
		serial := NewKernel()
		build(serial, &serialLog)
		nSerial := serial.Run(30)

		var winLog []int
		win := NewKernel()
		build(win, &winLog)
		var nWin uint64
		step := Time(1 + windowsRaw%9)
		for h := step; h < 30; h += step {
			nWin += win.Run(h)
		}
		nWin += win.Run(30)

		if nSerial != nWin {
			t.Fatalf("seed %d step %v: serial ran %d events, windowed %d", seed, step, nSerial, nWin)
		}
		if !reflect.DeepEqual(serialLog, winLog) {
			t.Fatalf("seed %d step %v: orders diverge", seed, step)
		}
		if serial.Now() != win.Now() || pending(serial) != pending(win) {
			t.Fatalf("seed %d step %v: end states diverge: clock %v vs %v, pending %d vs %d",
				seed, step, serial.Now(), win.Now(), pending(serial), pending(win))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.Run(20)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	k.After(-1, func() {})
}

// TestNaNTimePanics: a NaN time fails every ordered comparison, so a
// guard written as "at < now" would let it into the heap, where it
// breaks the (time, sequence) order. Schedule, After and Lane.Append
// must panic on NaN and leave no trace: no sequence number taken,
// nothing pending, nothing processed.
func TestNaNTimePanics(t *testing.T) {
	k := NewKernel()
	l := NewLane(k)
	k.Schedule(2, func() {})
	l.Append(3, func() {})
	k.Run(1)
	seq, waiting, processed := k.seq, pending(k), k.Processed()
	nan := math.NaN()
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Schedule", func() { k.Schedule(nan, func() {}) }},
		{"After", func() { k.After(nan, func() {}) }},
		{"Lane.Append", func() { l.Append(nan, func() {}) }},
	} {
		name, call := c.name, c.call
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			call()
		}()
		if k.seq != seq || pending(k) != waiting || k.Processed() != processed {
			t.Errorf("%s(NaN) left a trace: seq %d (want %d), pending %d (want %d), processed %d (want %d)",
				name, k.seq, seq, pending(k), waiting, k.Processed(), processed)
		}
	}
}

func TestNilFuncPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	k.Schedule(1, nil)
}

func TestMaxEvents(t *testing.T) {
	k := NewKernel()
	k.MaxEvents = 5
	var reschedule func()
	reschedule = func() { k.After(1, reschedule) }
	k.After(1, reschedule)
	k.Run(Infinity)
	if !k.Overflowed {
		t.Fatal("runaway simulation did not set Overflowed")
	}
	if k.Processed() != 5 {
		t.Fatalf("processed %d events, want 5", k.Processed())
	}
}

// TestMaxEventsWithLaneHeadAtRoot: the budget check runs before
// anything leaves a heap, so a lane head at the root when the budget
// runs out stays pending at its slot, and the clock stays at the last
// event fired.
func TestMaxEventsWithLaneHeadAtRoot(t *testing.T) {
	k := NewKernel()
	k.MaxEvents = 3
	l := NewLane(k)
	for at := Time(1); at <= 5; at++ {
		l.Append(at, func() {})
	}
	k.Schedule(10, func() {})
	if n := k.Run(100); n != 3 || !k.Overflowed {
		t.Fatalf("Run processed %d events (overflowed %v), want 3 and an overflow", n, k.Overflowed)
	}
	if k.Now() != 3 {
		t.Fatalf("clock at %v after the overflow, want 3", k.Now())
	}
	if len(k.fel.lanes) != 1 || k.fel.lanes[0].at != 4 {
		t.Fatalf("lane heap %v, want the lane's slot keyed at t=4", k.fel.lanes)
	}
	if got := pendingTimes(k); !reflect.DeepEqual(got, []Time{4, 5, 10}) {
		t.Fatalf("pending at %v, want [4 5 10]", got)
	}
}

// TestStepDrainsInOrder: Run on a one-event budget fires exactly the
// earliest event each time, so successive budgets drain the heap in
// time order.
func TestStepDrainsInOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{3, 1, 2} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	steps := 0
	for step(k) {
		steps++
		if k.Processed() != uint64(steps) || len(got) != steps {
			t.Fatalf("budget %d fired %d events", steps, len(got))
		}
	}
	if steps != 3 {
		t.Fatalf("one-event budgets drained %d events, want 3", steps)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("one-event budgets fired out of order: %v", got)
	}
}

// TestPendingCountsLiveEvents: every scheduled event and lane item
// waits in the future event list until it fires, and leaves it then.
func TestPendingCountsLiveEvents(t *testing.T) {
	k := NewKernel()
	k.Schedule(1, func() {})
	k.Schedule(2, func() {})
	NewLane(k).Append(2, func() {})
	if got := pending(k); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	k.Run(1)
	if got := pending(k); got != 2 {
		t.Fatalf("pending = %d after the first event fired, want 2", got)
	}
}

// TestRunAll pins the drain idiom: Run(Infinity) executes every pending
// event however far apart they lie, including the events their
// callbacks schedule on the way, and leaves nothing pending.
func TestRunAll(t *testing.T) {
	k := NewKernel()
	count := 0
	k.Schedule(1e12, func() { count++ })
	k.Schedule(1, func() {
		count++
		k.After(1e15, func() { count++ })
	})
	if n := k.Run(Infinity); n != 3 || count != 3 {
		t.Fatalf("Run(Infinity) ran %d events (count %d), want 3", n, count)
	}
	if n := pending(k); n != 0 {
		t.Fatalf("pending = %d after Run(Infinity), want 0", n)
	}
}

// Property: any batch of events fires in nondecreasing time order, and
// every event within the horizon fires exactly once.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, r := range raw {
			at := Time(r % 1000)
			k.Schedule(at, func() { fired = append(fired, at) })
		}
		k.Run(Infinity)
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling (events scheduling events) still respects
// global time order.
func TestNestedSchedulingProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel()
		last := Time(math.Inf(-1))
		ok := true
		var chain func(i int)
		chain = func(i int) {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
			if i < len(delays) {
				k.After(Time(delays[i]), func() { chain(i + 1) })
			}
		}
		k.After(0, func() { chain(0) })
		k.Run(Infinity)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			k.Schedule(Time(j%97), func() {})
		}
		k.Run(Infinity)
	}
}

func BenchmarkKernelSelfReschedule(b *testing.B) {
	k := NewKernel()
	n := 0
	var f func()
	f = func() {
		n++
		if n < b.N {
			k.After(1, f)
		}
	}
	b.ResetTimer()
	k.After(1, f)
	k.Run(Infinity)
}
