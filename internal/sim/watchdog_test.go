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
	if k.Pending() == 0 {
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
	if got := k.NextEventTimes(4); !reflect.DeepEqual(got, []Time{5, 9}) || k.Pending() != 2 {
		t.Fatalf("pending %d at %v, want the spinning item at 5 and the event at 9", k.Pending(), got)
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

func TestNextEventTimes(t *testing.T) {
	k := NewKernel()
	for _, at := range []Time{9, 3, 7, 1, 5} {
		k.Schedule(at, func() {})
	}
	got := k.NextEventTimes(3)
	want := []Time{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("NextEventTimes(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextEventTimes(3) = %v, want %v", got, want)
		}
	}
	if all := k.NextEventTimes(100); len(all) != 5 {
		t.Fatalf("NextEventTimes(100) returned %d times, want 5", len(all))
	}
}

// TestNextTimeReportsEarliestLiveEvent checks that the diagnostic peek
// reports the earliest live event across the heap and the ticker lanes,
// skipping cancelled events.
func TestNextTimeReportsEarliestLiveEvent(t *testing.T) {
	k := NewKernel()
	if got := k.NextEventTimes(1); len(got) != 0 {
		t.Fatalf("NextEventTimes(1) = %v on an empty kernel", got)
	}
	e1 := k.Schedule(2, func() {})
	k.Schedule(5, func() {})
	NewTicker(k, 3, func() {})
	for _, step := range []struct {
		name string
		do   func()
		want Time
	}{
		{"initially", func() {}, 2},
		{"after cancelling the head", func() { k.Cancel(e1) }, 3},
		{"after the tick rearms", func() { k.Run(4) }, 5},
	} {
		step.do()
		if got := k.NextEventTimes(1); len(got) != 1 || got[0] != step.want {
			t.Fatalf("%s: NextEventTimes(1) = %v, want [%v]", step.name, got, step.want)
		}
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
}

// TestNextTimeIsBehaviourInvisible checks that peeking at the future
// event list, before a run and from inside running callbacks as the
// audit dump does, leaves the run unchanged: the same events fire in
// the same order.
func TestNextTimeIsBehaviourInvisible(t *testing.T) {
	run := func(peek bool) ([]int, uint64, Time) {
		k := NewKernel()
		var got []int
		note := func(id int) {
			got = append(got, id)
			if peek {
				k.NextEventTimes(16)
			}
		}
		for i, at := range []Time{4, 1, 3, 3, 6} {
			i := i
			k.Schedule(at, func() { note(i) })
		}
		k.Cancel(k.Schedule(5, func() { note(99) }))
		NewTicker(k, 2, func() { note(-1) })
		if peek {
			k.NextEventTimes(16)
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
