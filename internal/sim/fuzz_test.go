package sim

import (
	"testing"
)

// FuzzKernelOps decodes an arbitrary byte stream into a sequence of
// kernel operations — schedules at equal/past/future times, double
// cancels, steps, bounded runs, Stop called from inside a callback,
// lane appends (in order and out of order), and ticker creation,
// Stop and Reset — and runs them through diffKernel (felprop_test.go),
// so every fired callback is checked against the sorted-slice
// reference and Processed(), Pending() and NextEventTimes() are
// compared after every operation. On top of the differential check:
// no panics except the documented schedule-in-the-past and
// decreasing-lane-append ones (which must leave no trace), a
// monotonically non-decreasing clock, and a bounded Run leaves no
// live event at or before its limit unless something stopped it.
//
// The seed corpus lives in testdata/fuzz/FuzzKernelOps.
func FuzzKernelOps(f *testing.F) {
	// One of each opcode, a tie burst, a cancel-twice pair, a
	// stop-inside-callback prefix, lane ties across both lanes and the
	// heap, and ticker churn on a shared period.
	f.Add([]byte{0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 10, 1, 10, 1, 10, 4, 4, 4})
	f.Add([]byte{6, 4, 1, 200, 5})
	f.Add([]byte{2, 50, 0, 3, 3, 4})
	f.Add([]byte{7, 0, 7, 1, 7, 0, 0, 7, 9, 4, 4, 4, 4})
	f.Add([]byte{9, 0, 9, 0, 9, 4, 5, 5, 9, 1, 9, 6, 5, 30, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDiffKernel(t, 2)
		k := d.k
		k.MaxEvents = 50_000
		k.StallEvents = 10_000
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
		stopped := false // a callback called k.Stop during the current run
		last := k.Now()
		for i := 0; i < len(data); i++ {
			switch data[i] % 10 {
			case 0: // schedule at the current time (zero-delay tie)
				d.schedule(k.Now(), nil)
			case 1: // schedule in the future
				d.schedule(k.Now()+Time(arg(i))+1, nil)
				i++
			case 2: // schedule in the past must panic (documented model bug)
				if k.Now() > 0 {
					mustPanic("schedule in the past", func() { k.Schedule(k.Now()-1, func() {}) })
				}
			case 3: // cancel a live handle twice; a tick stops its ticker
				if len(d.all) > 0 {
					id := int(arg(i)) % len(d.all)
					i++
					for _, dt := range d.tickers {
						if dt.cur == id {
							d.stopTicker(dt)
						}
					}
					if r := d.all[id]; r.ev != nil && !r.fired && !r.canceled {
						d.cancel(id)
						k.Cancel(r.ev) // cancel twice: second must be a no-op
					}
				}
			case 4:
				k.Step()
			case 5: // bounded run
				stopped = false
				until := k.Now() + Time(arg(i))
				i++
				k.Run(until)
				if next := d.next(); next != -1 && d.all[next].at <= until &&
					!stopped && !k.Stalled && !k.Overflowed {
					t.Fatalf("Run(%v) left record %d due at %v", until, next, d.all[next].at)
				}
			case 6: // stop from inside a callback
				stopped = false
				d.schedule(k.Now()+Time(arg(i)%8), func() { stopped = true; k.Stop() })
				i++
				k.Run(k.Now() + 16)
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
			case 9: // ticker churn
				a := arg(i)
				i++
				period := Time((a>>2)%4 + 1)
				if len(d.tickers) == 0 || (a%4 == 0 && len(d.tickers) < 4) {
					d.newTicker(period)
					break
				}
				dt := d.tickers[int(a>>4)%len(d.tickers)]
				switch a % 4 {
				case 1:
					d.stopTicker(dt)
				case 2:
					d.resetTicker(dt, period)
				default:
					d.resetTicker(dt, 0) // a non-positive period leaves it stopped
				}
			}
			if now := k.Now(); now < last {
				t.Fatalf("clock moved backwards: %v -> %v", last, now)
			} else {
				last = now
			}
			d.check("after op")
		}
		// Drain what's left; the kernel must terminate cleanly.
		k.MaxEvents = k.Processed() + 100_000
		k.Overflowed = false
		d.drain()
		if now := k.Now(); now < last {
			t.Fatalf("clock moved backwards during drain: %v -> %v", last, now)
		}
	})
}
