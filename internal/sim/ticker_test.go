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
// ticker while its rearm is pending at the head of its lane. The
// cancelled head's proxy struct is recycled by the free list and handed
// to an unrelated event; a second (stale) Stop must not cancel that
// successor. This is exactly the interleaving the parallel executor's
// barrier makes routine — cross-shard deliveries land between a tick
// and its sibling events — so the contract is pinned here at kernel
// level.
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

	// Run past t=10 so the cancelled rearm surfaces and its struct goes
	// back to the free list...
	k.Run(12)
	// ...then hand that struct to an unrelated event. A stale Stop on
	// the ticker must not reach through the recycled handle and cancel
	// it.
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
// the firing tick's lane item and proxy event retire when the callback
// returns. The ticker must drop its lane position so a later Stop
// cannot cancel whatever event next reuses the proxy's struct.
func TestTickerStopInCallbackThenStaleStop(t *testing.T) {
	k := NewKernel()
	var tk *Ticker
	tk = NewTicker(k, 5, func() { tk.Stop() })
	k.Run(6)
	if tk.armed {
		t.Fatalf("ticker retained its lane position after an in-callback Stop")
	}

	// The retired proxy event's struct is on the free list; the next
	// schedule reuses it.
	fired := false
	k.Schedule(8, func() { fired = true })
	tk.Stop()
	k.Run(10)
	if !fired {
		t.Fatalf("stale Ticker.Stop cancelled the event that reused its struct")
	}
}

func TestTickerResetAfterStop(t *testing.T) {
	k := NewKernel()
	var got []Time
	tk := NewTicker(k, 4, func() { got = append(got, k.Now()) })
	k.Run(5) // one tick at 4
	tk.Stop()
	tk.Reset(2) // restart from t=5: ticks at 7, 9, ...
	k.Run(9)
	if !reflect.DeepEqual(got, []Time{4, 7, 9}) {
		t.Fatalf("ticks = %v, want [4 7 9]", got)
	}
	tk.Reset(0)
	if !tk.Stopped() {
		t.Fatalf("Reset(0) left the ticker running")
	}
	k.Run(50)
	if len(got) != 3 {
		t.Fatalf("ticks after Reset(0): %v", got)
	}
}
