package sim

import (
	"reflect"
	"strings"
	"testing"
)

// A self-rescheduling zero-delay event is the classic DES livelock: the
// clock never advances, the FEL never drains. The watchdog must stop
// the run with a descriptive error instead of spinning to MaxEvents.
func TestWatchdogStopsZeroDelayLoop(t *testing.T) {
	k := NewKernel()
	k.StallEvents = 100
	var spin func()
	spin = func() { k.After(0, spin) }
	k.Schedule(5, spin)
	n := k.Run(1000)
	if !k.Stalled {
		t.Fatal("kernel did not detect the zero-delay loop")
	}
	if k.Now() != 5 {
		t.Fatalf("stalled at t=%v, want 5", k.Now())
	}
	// The offending event stays pending (visible to diagnostics) and is
	// not counted as processed.
	if pending(k) == 0 {
		t.Fatal("stall consumed the pending offender")
	}
	if n > 101 {
		t.Fatalf("processed %d events before stalling, want <= StallEvents+1", n)
	}
	err := k.Err()
	if err == nil {
		t.Fatal("stalled kernel reports no error")
	}
	if !strings.Contains(err.Error(), "no progress") || !strings.Contains(err.Error(), "t=5") {
		t.Fatalf("unhelpful stall error: %v", err)
	}
}

// TestWatchdogStopsZeroDelayLaneLoop is the same livelock through a
// lane: an item that appends to its own lane at now. The watchdog runs
// before the item leaves the lane heap, so the spinning item stays
// pending at its slot, unprocessed, with the clock at its time.
func TestWatchdogStopsZeroDelayLaneLoop(t *testing.T) {
	k := NewKernel()
	k.StallEvents = 100
	l := NewLane(k)
	var spin func()
	spin = func() { l.Append(k.Now(), spin) }
	l.Append(5, spin)
	k.Schedule(9, func() {})
	n := k.Run(1000)
	if !k.Stalled {
		t.Fatal("kernel did not detect the zero-delay lane loop")
	}
	if n != 99 || k.Processed() != 99 {
		t.Fatalf("run processed %d events (%d in total), want 99: the stalling item must not count",
			n, k.Processed())
	}
	if k.Now() != 5 {
		t.Fatalf("stalled at t=%v, want 5", k.Now())
	}
	if got := pendingTimes(k); !reflect.DeepEqual(got, []Time{5, 9}) {
		t.Fatalf("pending at %v, want the spinning item at 5 and the event at 9", got)
	}
	if len(k.fel.lanes) != 1 || k.fel.lanes[0].at != 5 {
		t.Fatalf("lane heap %v, want the spinning item's slot at t=5", k.fel.lanes)
	}
}

func TestWatchdogToleratesBurstsBelowThreshold(t *testing.T) {
	k := NewKernel()
	k.StallEvents = 100
	fired := 0
	// 99 simultaneous events at each of several timestamps: legal
	// same-time bursts, never a stall.
	for _, at := range []Time{1, 2, 3} {
		for i := 0; i < 99; i++ {
			k.Schedule(at, func() { fired++ })
		}
	}
	n := k.Run(10)
	if k.Stalled {
		t.Fatal("watchdog tripped on legal same-time bursts")
	}
	if n != 297 || fired != 297 {
		t.Fatalf("processed %d events, fired %d, want 297", n, fired)
	}
	if err := k.Err(); err != nil {
		t.Fatalf("healthy run reports error: %v", err)
	}
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	k := NewKernel()
	count := 0
	var spin func()
	spin = func() {
		count++
		if count < 5000 {
			k.After(0, spin)
		}
	}
	k.Schedule(1, spin)
	k.Run(10)
	if k.Stalled {
		t.Fatal("zero StallEvents must disable the watchdog")
	}
	if count != 5000 {
		t.Fatalf("processed %d same-time events, want 5000", count)
	}
}

// TestNextEventTimes: the event heap holds every scheduled time, and
// its root is the earliest.
func TestNextEventTimes(t *testing.T) {
	k := NewKernel()
	for _, at := range []Time{9, 3, 7, 1, 5} {
		k.Schedule(at, func() {})
	}
	if got, want := pendingTimes(k), []Time{1, 3, 5, 7, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pending times %v, want %v", got, want)
	}
	if root := k.fel.ev[0].at; root != 1 {
		t.Fatalf("event heap root at %v, want 1", root)
	}
}

// TestNextTimeReportsEarliestLiveEvent checks that the earliest pending
// time, across the event heap and the ticker lanes, follows the run as
// events fire and ticks rearm.
func TestNextTimeReportsEarliestLiveEvent(t *testing.T) {
	k := NewKernel()
	if got := pendingTimes(k); len(got) != 0 {
		t.Fatalf("pending times %v on an empty kernel", got)
	}
	k.Schedule(2, func() {})
	k.Schedule(5, func() {})
	NewTicker(k, 3, func() {})
	for _, step := range []struct {
		name string
		do   func()
		want Time
	}{
		{"initially", func() {}, 2},
		{"after the head fires", func() { k.Run(2) }, 3},
		{"after the tick rearms", func() { k.Run(4) }, 5},
	} {
		step.do()
		if got := pendingTimes(k); len(got) == 0 || got[0] != step.want {
			t.Fatalf("%s: pending times %v, want the earliest at %v", step.name, got, step.want)
		}
	}
	if n := pending(k); n != 2 {
		t.Fatalf("pending = %d, want 2", n)
	}
}

// TestNextTimeIsBehaviourInvisible checks that reading the future
// event list, before a run and from inside running callbacks, leaves
// the run unchanged: the same events fire in the same order. Every
// test that reads the list relies on that.
func TestNextTimeIsBehaviourInvisible(t *testing.T) {
	run := func(peek bool) ([]int, uint64, Time) {
		k := NewKernel()
		var got []int
		note := func(id int) {
			got = append(got, id)
			if peek {
				pendingTimes(k)
			}
		}
		for i, at := range []Time{4, 1, 3, 3, 6, 5} {
			i := i
			k.Schedule(at, func() { note(i) })
		}
		NewTicker(k, 2, func() { note(-1) })
		if peek {
			pendingTimes(k)
		}
		k.Run(7)
		return got, k.Processed(), k.Now()
	}
	plain, plainN, plainNow := run(false)
	peeked, peekedN, peekedNow := run(true)
	if !reflect.DeepEqual(plain, peeked) || plainN != peekedN || plainNow != peekedNow {
		t.Fatalf("peeking changed the run: %v (%d events, clock %v) vs %v (%d events, clock %v)",
			plain, plainN, plainNow, peeked, peekedN, peekedNow)
	}
}
