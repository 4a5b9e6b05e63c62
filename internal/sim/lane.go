package sim

import "fmt"

// This file is the kernel's FIFO lane: a queue of callbacks whose
// firing order is already known when they are scheduled, kept off the
// future event list except for its head.
//
// Order equivalence: Append takes the kernel's next sequence number at
// the moment a plain Schedule would have, and appends must not go back
// in time, so a lane is sorted by the same (time, sequence) key the FEL
// orders by. Only the head sits in the FEL, as a proxy Event carrying
// the head's reserved key; every other item is at or after it. The
// minimum over the heap plus the lane heads is therefore always the
// minimum the heap would hold had every item been scheduled directly:
// fire order, sequence numbers and Processed() are identical, and the
// dispatch loop (runLimit, Step, NextTime) needs no second path.
//
// What lanes buy is a smaller heap (thousands of pre-scheduled
// arrivals, every ticker's pending tick and every queued server work
// item collapse to one entry per lane) and no per-item Event or
// closure: a lane item is three words in a reused ring buffer.

// laneItem is one callback waiting in a lane under its reserved
// (time, sequence) key. A nil fn marks an item that fired or was
// cancelled.
type laneItem struct {
	at  Time
	seq uint64
	fn  func()
}

// Lane is a FIFO of callbacks appended in non-decreasing time order.
// Create one with NewLane; a Lane belongs to one kernel.
type Lane struct {
	k *Kernel
	// buf is a ring buffer whose length is a power of two; head and
	// tail are absolute append positions, so a position stays a valid
	// handle (see cancel) across wrap-around and growth.
	buf        []laneItem
	head, tail uint64
	last       Time   // time of the newest append
	proxy      *Event // the head's stand-in in the FEL; nil iff no live item
	fire       func() // l.pop as a method value, built once
}

// NewLane returns an empty lane on k.
func NewLane(k *Kernel) *Lane {
	l := &Lane{k: k}
	l.fire = l.pop
	k.lanes = append(k.lanes, l)
	return l
}

// Append arranges for fn to run at absolute time at, exactly as
// k.Schedule(at, fn) would, but without a handle: a lane item cannot
// be cancelled from outside the kernel. Appending a time earlier than
// the lane's newest item (or in the past) panics — it would break the
// order the lane exists to exploit.
func (l *Lane) Append(at Time, fn func()) { l.append(at, fn) }

// append is Append returning the item's position, the handle Ticker
// keeps for cancel.
//
//lint:hotpath every ticker rearm, job arrival and queued server work item enters the kernel here; kernel/ticker and the engine gates pin it allocation-free once the ring is warm
func (l *Lane) append(at Time, fn func()) uint64 {
	k := l.k
	if at < l.last || at < k.now {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: lane append at %v before %v (newest %v)", at, k.now, l.last))
	}
	if fn == nil {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic("sim: lane append nil func")
	}
	if l.tail-l.head == uint64(len(l.buf)) {
		l.grow()
	}
	pos := l.tail
	l.buf[pos&uint64(len(l.buf)-1)] = laneItem{at: at, seq: k.seq, fn: fn}
	k.seq++
	l.tail++
	l.last = at
	k.laneWaiting++
	if l.proxy == nil {
		l.promote()
	}
	return pos
}

// pop is the proxy's callback: it retires the head item, puts the next
// live item's proxy into the FEL, then runs the retired callback — so
// a callback that appends to its own lane finds it consistent.
//
//lint:hotpath the lane release path; every lane item fires through it
func (l *Lane) pop() {
	i := l.head & uint64(len(l.buf)-1)
	fn := l.buf[i].fn
	l.buf[i].fn = nil
	l.head++
	l.proxy = nil
	l.promote()
	fn()
}

// promote skips cancelled items at the head and schedules a proxy for
// the first live one under its reserved key. The caller guarantees no
// proxy is pending.
//
//lint:hotpath the lane release path; runs once per fired lane item
func (l *Lane) promote() {
	mask := uint64(len(l.buf) - 1)
	for ; l.head != l.tail; l.head++ {
		it := &l.buf[l.head&mask]
		if it.fn == nil {
			continue
		}
		l.proxy = l.k.eventAt(it.at, it.seq, l.fire)
		l.k.fel.push(l.proxy)
		l.k.laneWaiting--
		return
	}
}

// cancel withdraws the item at pos so it never fires and never counts
// as processed, exactly like Kernel.Cancel on a scheduled event. A
// position that already fired or was cancelled is a no-op. Cancelling
// the head retires its proxy and promotes the next live item.
func (l *Lane) cancel(pos uint64) {
	if pos < l.head || pos >= l.tail {
		return
	}
	it := &l.buf[pos&uint64(len(l.buf)-1)]
	if it.fn == nil {
		return
	}
	it.fn = nil
	if pos != l.head {
		l.k.laneWaiting--
		return
	}
	l.k.Cancel(l.proxy)
	l.proxy = nil
	l.head++
	l.promote()
}

// grow doubles the ring, re-placing the live window under the new mask.
func (l *Lane) grow() {
	n := 2 * len(l.buf)
	if n == 0 {
		n = 16
	}
	//lint:allow hotalloc amortized ring growth: a lane reaches its high-water mark early in a run and reuses the ring from then on
	buf := make([]laneItem, n)
	oldMask, newMask := uint64(len(l.buf)-1), uint64(n-1)
	for p := l.head; p != l.tail; p++ {
		buf[p&newMask] = l.buf[p&oldMask]
	}
	l.buf = buf
}

// waitingTimes appends the times of the live items queued behind the
// head (the head itself is in the FEL as the proxy).
func (l *Lane) waitingTimes(ts []Time) []Time {
	if l.proxy == nil {
		return ts
	}
	mask := uint64(len(l.buf) - 1)
	for p := l.head + 1; p != l.tail; p++ {
		if it := l.buf[p&mask]; it.fn != nil {
			ts = append(ts, it.at)
		}
	}
	return ts
}
