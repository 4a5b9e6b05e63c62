package sim

import (
	"testing"
)

// FuzzKernelOps decodes an arbitrary byte stream into a sequence of
// kernel operations — schedules at equal/past/future times, one-event
// budgets, bounded runs, lane appends (in order and out of order),
// ticker creation on shared periods, a lane item that spins at zero
// delay until the watchdog trips, and a run on a small event budget —
// over eight lanes plus up to four ticker lanes, and runs them through
// diffKernel (felprop_test.go), so every fired callback is checked
// against the sorted-slice reference and Processed() and the pending
// times are compared after every operation. On top of the differential
// check: no panics except the documented schedule-in-the-past and
// decreasing-lane-append ones (which must leave no trace), a
// monotonically non-decreasing clock, and a bounded Run leaves no
// live event at or before its limit unless its budget or the watchdog
// stopped it.
//
// An opcode is a byte mod 12. Opcodes 3 and 6 are unused: they decode
// as no-ops that take no argument byte, and every other opcode keeps
// its number, so the seed corpus in testdata/fuzz/FuzzKernelOps stays
// valid byte for byte.
func FuzzKernelOps(f *testing.F) {
	// One of each opcode, a tie burst, a far schedule around bounded
	// runs, an in-the-past prefix, lane ties across both lanes and the
	// heap, and tickers on a shared period.
	f.Add([]byte{0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 10, 1, 10, 1, 10, 4, 4, 4})
	f.Add([]byte{6, 4, 1, 200, 5})
	f.Add([]byte{2, 50, 0, 3, 3, 4})
	f.Add([]byte{7, 0, 7, 1, 7, 0, 0, 7, 9, 4, 4, 4, 4})
	f.Add([]byte{9, 0, 9, 0, 9, 4, 5, 5, 9, 1, 9, 6, 5, 30, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDiffKernel(t, 8)
		k := d.k
		const maxEvents, spins = 50_000, 300
		k.MaxEvents = maxEvents
		k.StallEvents = 256
		arg := func(i int) byte {
			if i+1 < len(data) {
				return data[i+1]
			}
			return 0
		}
		mustPanic := func(what string, fn func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", what)
				}
			}()
			fn()
		}
		// run is a bounded Run, which leaves no live event at or before
		// its limit unless its budget or the watchdog stopped it.
		run := func(until Time) {
			t.Helper()
			k.Run(until)
			if next := d.next(); next != -1 && d.all[next].at <= until &&
				!k.Stalled && !k.Overflowed {
				t.Fatalf("Run(%v) left record %d due at %v", until, next, d.all[next].at)
			}
		}
		last := k.Now()
		for i := 0; i < len(data); i++ {
			switch data[i] % 12 {
			case 0: // schedule at the current time (zero-delay tie)
				d.schedule(k.Now(), nil)
			case 1: // schedule in the future
				d.schedule(k.Now()+Time(arg(i))+1, nil)
				i++
			case 2: // schedule in the past must panic (documented model bug)
				if k.Now() > 0 {
					mustPanic("schedule in the past", func() { k.Schedule(k.Now()-1, func() {}) })
				}
			case 4: // a one-event budget: the earliest item fires
				step(k)
			case 5: // bounded run
				run(k.Now() + Time(arg(i)))
				i++
			case 7: // lane append, never behind the lane's newest item
				a := arg(i)
				i++
				ln := d.lanes[int(a)%len(d.lanes)]
				at := ln.last
				if at < k.Now() {
					at = k.Now()
				}
				d.appendLane(ln, at+Time((a>>1)%4))
			case 8: // a lane append behind the lane's newest item, or in the past, must panic
				ln := d.lanes[int(arg(i))%len(d.lanes)]
				i++
				back := max(ln.last, k.Now()) - 1
				mustPanic("decreasing lane append", func() { ln.l.Append(back, func() {}) })
			case 9: // a new ticker, up to four, on one of four shared periods
				a := arg(i)
				i++
				if d.tickers < 4 {
					d.newTicker(Time((a>>2)%4 + 1))
				}
			case 10: // a lane item that re-appends itself at now, past the watchdog
				ln := d.lanes[int(arg(i))%len(d.lanes)]
				i++
				d.spinLane(ln, max(ln.last, k.Now()), spins)
			case 11: // a bounded run on a budget of a few events
				a := arg(i)
				i++
				budget := k.Processed() + uint64(a%8)
				k.MaxEvents = budget
				run(k.Now() + Time(a>>3))
				if k.Overflowed && k.Processed() != budget {
					t.Fatalf("overflowed at %d events, budget %d", k.Processed(), budget)
				}
				k.MaxEvents, k.Overflowed = maxEvents, false
			}
			if now := k.Now(); now < last {
				t.Fatalf("clock moved backwards: %v -> %v", last, now)
			} else {
				last = now
			}
			d.check("after op")
		}
		// Drain what's left, the spinners included, with the watchdog
		// off; the kernel must terminate cleanly.
		k.MaxEvents = k.Processed() + 100_000
		k.Overflowed = false
		k.StallEvents, k.Stalled = 0, false
		d.drain()
		if now := k.Now(); now < last {
			t.Fatalf("clock moved backwards during drain: %v -> %v", last, now)
		}
	})
}
