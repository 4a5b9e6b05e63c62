package sim

import "fmt"

// This file is the kernel's FIFO lane: a queue of callbacks whose
// firing order is already known when they are scheduled, kept out of
// the event heap altogether.
//
// Order equivalence: Append takes the kernel's next sequence number at
// the moment a plain Schedule would have, and appends must not go back
// in time, so a lane is sorted by the same (time, sequence) key the FEL
// orders by. A lane with a live item has one slot in the lane heap
// (fel.go), keyed by its head item; every other item is at or after
// it. The lane heap's root is therefore the earliest lane item, and the
// smaller of the two heap roots is always the minimum one heap would
// hold had every item been scheduled directly: fire order, sequence
// numbers and Processed() are identical.
//
// Release in place: when a lane item fires, its lane's slot is the lane
// heap's root. The slot is re-keyed to the next live item and sifted
// down once, or removed when the lane runs empty — no Event, no push
// and no pop in the event heap. What lanes buy is a small event heap
// (thousands of pre-scheduled arrivals, every ticker's pending tick and
// every queued server work item collapse to one slot per lane, in a
// heap of a few dozen) and no per-item Event or closure: a lane item is
// three words in a reused ring buffer.

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
//
// Invariant: the item at head is live, or head == tail; the lane has a
// slot in the lane heap exactly when head != tail.
type Lane struct {
	k *Kernel
	// buf is a ring buffer whose length is a power of two; head and
	// tail are absolute append positions, so a position stays a valid
	// handle (see cancel) across wrap-around and growth.
	buf        []laneItem
	head, tail uint64
	last       Time  // time of the newest append
	idx        int32 // index in k.lanes: the id of the lane's heap slot
}

// NewLane returns an empty lane on k. The lane heap's capacity grows
// here, so a slot push while running never allocates.
func NewLane(k *Kernel) *Lane {
	l := &Lane{k: k, idx: int32(len(k.lanes))}
	k.lanes = append(k.lanes, l)
	if f := &k.fel; cap(f.lanes) < len(k.lanes) {
		f.lanes = append(make([]slot, 0, 2*len(k.lanes)), f.lanes...)
	}
	return l
}

// Append arranges for fn to run at absolute time at, exactly as
// k.Schedule(at, fn) would, but without a handle: a lane item cannot
// be cancelled from outside the kernel. Appending a time earlier than
// the lane's newest item, in the past, or NaN panics — it would break
// the order the lane exists to exploit.
func (l *Lane) Append(at Time, fn func()) { l.append(at, fn) }

// append is Append returning the item's position, the handle Ticker
// keeps for cancel.
//
//lint:hotpath every ticker rearm, job arrival and queued server work item enters the kernel here; TestKernelLanesZeroAlloc and TestTickerRearmZeroAlloc pin it allocation-free once the ring is warm
func (l *Lane) append(at Time, fn func()) uint64 {
	k := l.k
	if !(at >= l.last && at >= k.now) {
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
	l.tail++
	l.last = at
	if pos == l.head {
		k.fel.lanes = heapAdd(k.fel.lanes, slot{at: at, seq: k.seq, id: l.idx})
	} else {
		k.laneWaiting++
	}
	k.seq++
	return pos
}

// release retires the head item, whose slot is the lane heap's root,
// and returns its callback for the dispatch loop to run. The slot moves
// on before the callback runs, so a callback that appends to its own
// lane finds it consistent.
//
//lint:hotpath the lane release path; every lane item fires through it
func (l *Lane) release() func() {
	it := &l.buf[l.head&uint64(len(l.buf)-1)]
	fn := it.fn
	it.fn = nil
	l.advance(0)
	return fn
}

// advance moves head past the retired head item and any cancelled
// items behind it. The lane's slot, at index i of the lane heap, is
// re-keyed to the new head and sifted down — a lane's keys only grow —
// or removed when the lane runs empty.
//
//lint:hotpath the lane release path; runs once per fired lane item
func (l *Lane) advance(i int) {
	k := l.k
	mask := uint64(len(l.buf) - 1)
	for l.head++; l.head != l.tail; l.head++ {
		it := &l.buf[l.head&mask]
		if it.fn != nil {
			k.laneWaiting--
			siftDown(k.fel.lanes, slot{at: it.at, seq: it.seq, id: l.idx}, i)
			return
		}
	}
	k.fel.lanes = heapDel(k.fel.lanes, i)
}

// cancel withdraws the item at pos so it never fires and never counts
// as processed, exactly like Kernel.Cancel on a scheduled event. A
// position that already fired or was cancelled is a no-op. Cancelling
// the head finds the lane's slot by a linear scan — there is at most
// one slot per lane, a few dozen per kernel, and only Ticker.Stop gets
// here — and advances the lane.
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
	i := 0
	for l.k.fel.lanes[i].id != l.idx {
		i++
	}
	l.advance(i)
}

// Grow makes room for n more items, so the next n appends never grow
// the ring. A caller that knows how many items it is about to append
// sizes the ring once instead of doubling it up to that size.
func (l *Lane) Grow(n int) {
	if n <= 0 {
		return
	}
	need := l.tail - l.head + uint64(n)
	if need <= uint64(len(l.buf)) {
		return
	}
	size := max(len(l.buf), 16)
	for uint64(size) < need {
		size *= 2
	}
	l.resize(size)
}

// grow doubles the ring.
func (l *Lane) grow() { l.resize(max(2*len(l.buf), 16)) }

// resize moves the live window into a ring of n slots, a power of two
// at least as long as the window, re-placing it under the new mask.
func (l *Lane) resize(n int) {
	//lint:allow hotalloc amortized ring growth: a lane reaches its high-water mark early in a run and reuses the ring from then on
	buf := make([]laneItem, n)
	oldMask, newMask := uint64(len(l.buf)-1), uint64(n-1)
	for p := l.head; p != l.tail; p++ {
		buf[p&newMask] = l.buf[p&oldMask]
	}
	l.buf = buf
}

// liveTimes appends the times of the lane's live items, head included.
func (l *Lane) liveTimes(ts []Time) []Time {
	mask := uint64(len(l.buf) - 1)
	for p := l.head; p != l.tail; p++ {
		if it := l.buf[p&mask]; it.fn != nil {
			ts = append(ts, it.at)
		}
	}
	return ts
}
