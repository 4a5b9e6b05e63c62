package sim

import (
	"reflect"
	"testing"
)

func TestTickerFiresEveryPeriod(t *testing.T) {
	k := NewKernel()
	var got []Time
	NewTicker(k, 3, func() { got = append(got, k.Now()) })
	k.Run(10)
	if !reflect.DeepEqual(got, []Time{3, 6, 9}) {
		t.Fatalf("ticks at %v, want [3 6 9]", got)
	}
}

func TestTickerNonPositivePeriodIsDisabled(t *testing.T) {
	k := NewKernel()
	fired := false
	tk := NewTicker(k, 0, func() { fired = true })
	if !tk.Stopped() {
		t.Fatalf("period-0 ticker not stopped")
	}
	k.Run(100)
	if fired {
		t.Fatalf("disabled ticker fired")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := NewKernel()
	var tk *Ticker
	ticks := 0
	tk = NewTicker(k, 2, func() {
		ticks++
		if ticks == 2 {
			tk.Stop()
		}
	})
	k.Run(100)
	if ticks != 2 {
		t.Fatalf("%d ticks after in-callback Stop at 2", ticks)
	}
	if !tk.Stopped() {
		t.Fatalf("ticker not stopped")
	}
}

// TestTickerStopRacingPendingRearm is the handle-lifetime contract
// under fire: a sibling event at the same timestamp as a tick stops the
// ticker while its rearm is pending at the head of its lane. A ticker
// holds no Event, only the absolute lane position of its pending tick,
// and a position below the lane's head never names a live item again.
// So a second (stale) Stop is a no-op: it must not cancel an unrelated
// event scheduled after the first Stop.
func TestTickerStopRacingPendingRearm(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	tk := NewTicker(k, 5, func() { ticks = append(ticks, k.Now()) })

	// The tick at t=5 fires first (FIFO among same-time events: the
	// ticker armed at t=0, this sibling is scheduled after it exists but
	// at the same timestamp) and rearms for t=10; then the sibling stops
	// the ticker, cancelling the pending rearm.
	k.Schedule(5, func() { tk.Stop() })
	k.Run(7)
	if !reflect.DeepEqual(ticks, []Time{5}) {
		t.Fatalf("ticks = %v, want [5]", ticks)
	}

	// Run past t=10, where the cancelled rearm would have fired...
	k.Run(12)
	// ...then schedule an unrelated event. A stale Stop on the ticker
	// must not cancel it.
	fired := false
	k.Schedule(20, func() { fired = true })
	tk.Stop()
	k.Run(25)
	if !fired {
		t.Fatalf("stale Ticker.Stop cancelled an unrelated recycled event")
	}
	if got := len(ticks); got != 1 {
		t.Fatalf("ticker fired %d times after Stop", got)
	}
}

// TestTickerStopInCallbackThenStaleStop covers the other rearm race:
// fn itself stops the ticker mid-tick, so the rearm never happens and
// the firing tick's lane item has already retired. The ticker must
// drop its lane position, and a later Stop must be a no-op that leaves
// the next scheduled event alone.
func TestTickerStopInCallbackThenStaleStop(t *testing.T) {
	k := NewKernel()
	var tk *Ticker
	tk = NewTicker(k, 5, func() { tk.Stop() })
	k.Run(6)
	if tk.armed {
		t.Fatalf("ticker retained its lane position after an in-callback Stop")
	}

	fired := false
	k.Schedule(8, func() { fired = true })
	tk.Stop()
	k.Run(10)
	if !fired {
		t.Fatalf("stale Ticker.Stop cancelled the event that reused its struct")
	}
}

// TestTickerReset checks the period-change idiom, Stop followed by a
// fresh NewTicker: the new ticker fires one new period after the
// change, on its own lane, and the stopped one never fires again.
func TestTickerReset(t *testing.T) {
	k := NewKernel()
	var fires []Time
	tick := func() { fires = append(fires, k.Now()) }
	tk := NewTicker(k, 10, tick)
	k.Run(25) // fires at 10, 20
	tk.Stop()
	tk = NewTicker(k, 100, tick)
	k.Run(200) // fires at 125
	if !reflect.DeepEqual(fires, []Time{10, 20, 125}) {
		t.Fatalf("after the period change fires = %v, want [10 20 125]", fires)
	}
	if tk.Stopped() {
		t.Fatalf("restarted ticker reports stopped")
	}
}

// TestTickerResetAfterStop restarts a ticker stopped earlier, moving it
// to a shorter period's lane, then restarts it with a non-positive
// period, which leaves it disabled.
func TestTickerResetAfterStop(t *testing.T) {
	k := NewKernel()
	var got []Time
	tick := func() { got = append(got, k.Now()) }
	tk := NewTicker(k, 4, tick)
	k.Run(5) // one tick at 4
	tk.Stop()
	k.Run(6)
	tk = NewTicker(k, 2, tick) // restart from t=6: ticks at 8, 10, ...
	k.Run(10)
	if !reflect.DeepEqual(got, []Time{4, 8, 10}) {
		t.Fatalf("ticks = %v, want [4 8 10]", got)
	}
	tk.Stop()
	tk = NewTicker(k, 0, tick)
	if !tk.Stopped() {
		t.Fatalf("a restart with period 0 left the ticker running")
	}
	k.Run(50)
	if len(got) != 3 {
		t.Fatalf("ticks after the period-0 restart: %v", got)
	}
}
